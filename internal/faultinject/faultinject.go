//go:build faultinject

// Package faultinject deterministically injects faults — panics, simulated
// allocation failures, cancellations — at named sites in the search, cube,
// baseline and kernel paths, for the fault-tolerance test matrix.
//
// The package is gated twice so production builds pay nothing:
//
//   - build tag: without -tags faultinject this file is replaced by the
//     no-op implementation in off.go, whose empty functions inline away;
//   - arming: even in a faultinject build, a site only fires after Arm (or
//     the INCOGNITO_FAULTS environment variable) armed it.
//
// INCOGNITO_FAULTS is a comma-separated list of kind:site:after triples,
// e.g. "panic:core.rollup:3,alloc:relation.dense_alloc:0": kind is panic,
// cancel or alloc; after n > 0 fires exactly on the n-th hit of the site
// and then disarms, after ≤ 0 fires on every hit.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Fault kinds.
const (
	KindPanic  = "panic"  // Point panics with a recognizable value
	KindCancel = "cancel" // Point invokes the function registered via OnCancel
	KindAlloc  = "alloc"  // FailAlloc reports a simulated allocation failure
	KindFail   = "fail"   // Fail reports a simulated I/O failure (a journal write)
)

type arm struct {
	kind  string
	after int // fire on the after-th hit; ≤ 0 fires on every hit
	hits  int
}

var (
	mu       sync.Mutex
	arms     = map[string]*arm{}
	onCancel func()
)

func init() {
	if spec := os.Getenv("INCOGNITO_FAULTS"); spec != "" {
		if err := ArmSpec(spec); err != nil {
			panic(err)
		}
	}
}

// Enabled reports whether this build can inject faults.
func Enabled() bool { return true }

// Arm arranges for a fault of the given kind at the named site: after n > 0
// fires exactly on the n-th hit then disarms, n ≤ 0 fires on every hit.
func Arm(site, kind string, after int) {
	mu.Lock()
	defer mu.Unlock()
	arms[site] = &arm{kind: kind, after: after}
}

// ArmSpec arms every kind:site:after triple of a comma-separated spec (the
// INCOGNITO_FAULTS format).
func ArmSpec(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return fmt.Errorf("faultinject: bad INCOGNITO_FAULTS entry %q (want kind:site:after)", part)
		}
		kind := fields[0]
		if kind != KindPanic && kind != KindCancel && kind != KindAlloc && kind != KindFail {
			return fmt.Errorf("faultinject: unknown fault kind %q in %q", kind, part)
		}
		after, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("faultinject: bad hit count in %q: %w", part, err)
		}
		Arm(fields[1], kind, after)
	}
	return nil
}

// OnCancel registers the function KindCancel faults invoke — typically the
// cancel func of the context under test.
func OnCancel(fn func()) {
	mu.Lock()
	defer mu.Unlock()
	onCancel = fn
}

// Reset disarms every site and clears the cancel hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	arms = map[string]*arm{}
	onCancel = nil
}

// fire reports whether the site's armed fault of the given kind fires on
// this hit, and returns the cancel hook to run outside the lock.
func fire(site, kind string) (bool, func()) {
	mu.Lock()
	defer mu.Unlock()
	a := arms[site]
	if a == nil || a.kind != kind {
		return false, nil
	}
	if a.after <= 0 {
		return true, onCancel
	}
	a.hits++
	if a.hits != a.after {
		return false, nil
	}
	delete(arms, site)
	return true, onCancel
}

// Point fires an armed panic or cancellation fault at the named site. Call
// it at the top of the code path under test.
func Point(site string) {
	if ok, _ := fire(site, KindPanic); ok {
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	}
	if ok, cancel := fire(site, KindCancel); ok && cancel != nil {
		cancel()
	}
}

// FailAlloc reports whether an armed allocation-failure fault fires at the
// named site; the caller then takes its allocation-failed fallback path.
func FailAlloc(site string) bool {
	ok, _ := fire(site, KindAlloc)
	return ok
}

// Fail reports whether an armed operation-failure fault fires at the named
// site; the caller then takes its error path as if the operation (a journal
// write) had failed for real.
func Fail(site string) bool {
	ok, _ := fire(site, KindFail)
	return ok
}
