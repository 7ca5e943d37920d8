package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rss returns the process's resident set in bytes, from /proc/self/statm;
// where that file is missing it falls back to the Go runtime's mapped
// memory not yet returned to the OS.
func rss() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := bytes.Fields(b); len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Sys - m.HeapReleased)
}

// settle collects set-up garbage and returns it to the OS, so it counts
// toward no measured window's resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// meter measures the timed phase as a series of windows — one op of an
// engine workload, one round of client ops of service-mix — summing their
// wall and CPU time and keeping the highest resident set sampled in each.
// Set-up, warm-up and output checks fall between windows. The kernel's
// own high-water mark would include set-up, so RSS is sampled instead.
type meter struct {
	traced bool
	quit   chan struct{}
	once   sync.Once
	done   sync.WaitGroup

	mu   sync.Mutex
	open bool
	cur  int64 // highest RSS sampled in the open window

	t0    time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	wall  time.Duration
	cpu   time.Duration
	peaks []int64
	// Traced runs only: bytes allocated (MB) and GC cycles in the windows.
	allocMB, gcCycles float64
}

// newMeter starts the RSS sampler; stop it with stop.
func newMeter(traced bool) *meter {
	m := &meter{traced: traced, quit: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *meter) sample() {
	v := rss()
	m.mu.Lock()
	if m.open {
		m.cur = max(m.cur, v)
	}
	m.mu.Unlock()
}

// begin opens a window.
func (m *meter) begin() {
	if m.traced {
		runtime.ReadMemStats(&m.mem0)
	}
	m.mu.Lock()
	m.open, m.cur = true, 0
	m.mu.Unlock()
	m.sample()
	m.t0, m.cpu0 = time.Now(), cpuTime()
}

// end closes the window and returns its wall time.
func (m *meter) end() time.Duration {
	wall, cpu := time.Since(m.t0), cpuTime()-m.cpu0
	m.sample()
	m.mu.Lock()
	m.open = false
	m.peaks = append(m.peaks, m.cur)
	m.mu.Unlock()
	m.wall += wall
	m.cpu += cpu
	if m.traced {
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		m.allocMB += float64(st.TotalAlloc-m.mem0.TotalAlloc) / (1 << 20)
		m.gcCycles += float64(st.NumGC - m.mem0.NumGC)
	}
	return wall
}

// stop stops the sampler and waits for it to exit; later calls do nothing.
func (m *meter) stop() {
	m.once.Do(func() {
		close(m.quit)
		m.done.Wait()
	})
}

// fill copies the measurements into r; ops is the number of client
// operations the windows completed.
func (m *meter) fill(r *report, ops int) {
	r.ops, r.wall, r.cpu, r.rssPeaks = ops, m.wall, m.cpu, m.peaks
}
