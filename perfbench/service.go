package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	incognito "incognito"
	"incognito/internal/dataset"
	"incognito/internal/qispec"
	"incognito/internal/service"
	"incognito/internal/telemetry"
)

const (
	// pollInterval is how often a client polls a job's status: small next
	// to a ~80 ms job, and fixed so every commit is measured the same way.
	pollInterval = 2 * time.Millisecond
	// roundTime is how much of --seconds one round stands for: about what
	// a full-size round takes on a 2-vCPU machine.
	roundTime  = 1500 * time.Millisecond
	clients    = 2  // closed-loop clients
	roundIters = 6  // iterations per client and round
	deltaRows  = 20 // rows each delta adds, and rows it deletes
)

// serviceMix drives the in-process incognitod handler with closed-loop
// clients. Each client iteration submits a fresh dataset with
// retain_state (latency_ms), resubmits it as a cache hit (hit_ms), and
// posts a delta against the first job (delta_job_ms). The daemon keeps
// every job's table, result and state, so the run is a fixed number of
// rounds, each a full set-up (datasets, hierarchy files, the library runs
// the checks compare with, a fresh daemon) followed by a fixed number of
// iterations per client: memory stays bounded, and a faster commit runs no
// more jobs than a slower one. Each round's ops are one meter window;
// their checks run after it.
func serviceMix(p params) (*report, error) {
	rounds := max(1, int(p.seconds/roundTime))
	r := &report{latency: map[string][]time.Duration{}}
	var mu sync.Mutex
	var traced []time.Duration
	completed := 0
	record := func(name string, d time.Duration, tracedOp bool) {
		mu.Lock()
		defer mu.Unlock()
		completed++
		switch {
		case !tracedOp:
			r.latency[name] = append(r.latency[name], d)
		case name == "latency_ms":
			traced = append(traced, d)
		}
	}
	var total svcCounters
	m := newMeter(p.tr != nil)
	defer m.stop()
	for round := 0; round < rounds; round++ {
		n := clients * roundIters
		if round == 0 {
			n++ // the warm-up iteration's dataset comes last
		}
		t0 := time.Now()
		env, err := newSvcEnv(p, round, n)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0))
		if round == 0 {
			env.iteration(nil, n-1, func(string, time.Duration, bool) {})
		}
		before, err := env.counters()
		if err != nil {
			env.close()
			return nil, err
		}
		settle()
		m.begin()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < roundIters; i++ {
					tr := p.tr
					if i%2 == 0 {
						tr = nil
					}
					env.iteration(tr, c*roundIters+i, record)
				}
			}(c)
		}
		wg.Wait()
		m.end()
		after, err := env.counters()
		if err == nil {
			total.add(after, before)
		}
		for i := range env.sets {
			r.attempted += 3
			r.failed += env.verify(i, p.log)
		}
		env.close()
		if err != nil {
			return nil, err
		}
	}
	m.stop()
	m.fill(r, completed)
	if p.tr != nil {
		r.fillLayers(p.tr, m, traced)
		r.layers["service.hit_ms"] = ms(median(r.latency["hit_ms"]))
		r.layers["service.delta_job_ms"] = ms(median(r.latency["delta_job_ms"]))
		jobs := float64(total.jobs)
		r.layers["service.journal_kb_per_job"] = total.journalBytes / 1024 / jobs
		if lookups := total.hits + total.misses; lookups > 0 {
			r.layers["service.cache_hit_ratio"] = total.hits / lookups
		}
		r.layers["service.runs_per_submission"] = float64(total.runs) / jobs
	}
	return r, nil
}

// svcEnv is one round's daemon, its client and the round's datasets.
type svcEnv struct {
	dir    string
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	spec   string
	sets   []svcSet
}

// svcSet is one client iteration's inputs, the library's answers for
// them, and what the daemon returned.
type svcSet struct {
	data, addCSV, delCSV string
	ref, deltaRef        *output // library runs over the dataset and the edited dataset

	jobID                  string
	job, hit, delta        []byte // result payloads
	jobErr, hitErr, dltErr error
}

// newSvcEnv generates n datasets, the hierarchy files and the library
// runs the checks compare with, then starts the daemon the way
// incognitod's defaults would, with the journal on, 2 job workers, per-job
// parallelism 1 and file hierarchies allowed.
func newSvcEnv(p params, round, n int) (*svcEnv, error) {
	dir, err := os.MkdirTemp(p.work, "service-")
	if err != nil {
		return nil, err
	}
	env := &svcEnv{dir: dir, sets: make([]svcSet, n)}
	rows := p.size.serviceRows
	for i := range env.sets {
		name := fmt.Sprintf("service-mix/%d/%d", round, i)
		d := dataset.Adults(rows, subSeed(p.seed, name))
		if i == 0 {
			// Hierarchy files carry the full Fig. 9 domains, so one set
			// serves every dataset.
			if env.spec, err = writeHierarchies(dir, d, 5); err != nil {
				return nil, err
			}
		}
		var data bytes.Buffer
		if err := d.Table.WriteCSV(&data); err != nil {
			return nil, err
		}
		// The delta adds deltaRows fresh rows and deletes deltaRows
		// existing ones, spread over the table.
		fresh := dataset.Adults(deltaRows, subSeed(p.seed, name+"/add"))
		var del [][]string
		for j := 0; j < deltaRows; j++ {
			del = append(del, d.Table.Row(j*(rows/deltaRows)))
		}
		add, err := csvBytes(d.Table.Columns(), fresh.Table.Rows())
		if err != nil {
			return nil, err
		}
		delData, err := csvBytes(d.Table.Columns(), del)
		if err != nil {
			return nil, err
		}
		env.sets[i] = svcSet{data: data.String(), addCSV: string(add), delCSV: string(delData)}
		if err := env.references(&env.sets[i]); err != nil {
			return nil, err
		}
	}
	env.svc, err = service.New(service.Config{
		Workers:              2,
		QueueDepth:           64,
		CacheMaxBytes:        64 << 20,
		CacheMaxEntries:      256,
		AllowFileHierarchies: true,
		JournalDir:           filepath.Join(dir, "journal"),
		DefaultParallelism:   1,
		DrainTimeout:         30 * time.Second,
		Registry:             telemetry.NewRegistry(),
		TraceJobs:            64,
	})
	if err != nil {
		return nil, err
	}
	env.svc.WaitRecovered()
	env.srv = httptest.NewServer(env.svc.Handler())
	env.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return env, nil
}

func (e *svcEnv) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
	e.svc.Drain()
	os.RemoveAll(e.dir)
}

// iteration runs one client iteration on dataset i: a fresh job, a cache
// hit on the same dataset, and a delta against the first job.
func (e *svcEnv) iteration(tr *tracer, i int, record func(name string, d time.Duration, traced bool)) {
	set := &e.sets[i]
	// The bodies hold only strings, ints and bools, so marshaling cannot
	// fail; they are built before any op's clock starts.
	submit := func(retain bool) []byte {
		b, _ := json.Marshal(service.SubmitRequest{CSV: set.data, QI: e.spec,
			Policy: service.Policy{K: 2, RetainState: retain}})
		return b
	}
	jobBody, hitBody := submit(true), submit(false)
	deltaBody, _ := json.Marshal(service.DeltaRequest{AddCSV: set.addCSV, DelCSV: set.delCSV})

	root := tr.begin("job")
	t0 := time.Now()
	id, payload, err := e.runJob(root, "service.submit", "/v1/jobs", jobBody, http.StatusAccepted)
	d := time.Since(t0)
	root.end()
	set.jobID, set.job, set.jobErr = id, payload, err
	if err == nil {
		record("latency_ms", d, tr != nil)
	}

	root = tr.begin("hit")
	t0 = time.Now()
	set.hit, set.hitErr = e.hitJob(root, hitBody)
	d = time.Since(t0)
	root.end()
	if set.hitErr == nil {
		record("hit_ms", d, tr != nil)
	}

	if set.jobErr != nil {
		set.dltErr = fmt.Errorf("no parent job: %w", set.jobErr)
		return
	}
	root = tr.begin("delta_job")
	t0 = time.Now()
	_, set.delta, set.dltErr = e.runJob(root, "service.delta_submit", "/v1/jobs/"+id+"/delta", deltaBody, http.StatusAccepted)
	d = time.Since(t0)
	root.end()
	if set.dltErr == nil {
		record("delta_job_ms", d, tr != nil)
	}
}

// runJob posts a submission, polls the job until it ends, and fetches its
// result.
func (e *svcEnv) runJob(root spanRef, submitSpan, path string, body []byte, want int) (string, []byte, error) {
	s := root.child(submitSpan)
	var sub service.SubmitResponse
	err := e.do(http.MethodPost, path, body, want, &sub)
	s.end()
	if err != nil {
		return "", nil, err
	}
	s = root.child("service.poll")
	polls := 0
	var st service.StatusResponse
	for {
		polls++
		if err := e.do(http.MethodGet, "/v1/jobs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			s.end()
			return sub.ID, nil, err
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(pollInterval)
	}
	s.end()
	root.set("service.polls_per_job", float64(polls))
	if st.State != service.StateDone {
		return sub.ID, nil, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	if st.Started != nil && st.Finished != nil {
		root.set("service.queue_wait_ms", ms(st.Started.Sub(st.Created)))
		run := "service.run_ms"
		if st.DeltaOf != "" {
			run = "service.delta_run_ms"
		}
		root.set(run, ms(st.Finished.Sub(*st.Started)))
	}
	payload, err := e.result(root, sub.ID)
	return sub.ID, payload, err
}

// hitJob resubmits a finished dataset, which the cache must answer, and
// fetches the result.
func (e *svcEnv) hitJob(root spanRef, body []byte) ([]byte, error) {
	s := root.child("service.hit_submit")
	var sub service.SubmitResponse
	err := e.do(http.MethodPost, "/v1/jobs", body, http.StatusOK, &sub)
	s.end()
	if err != nil {
		return nil, err
	}
	if !sub.CacheHit || sub.State != service.StateDone {
		return nil, fmt.Errorf("resubmission was not a cache hit: %+v", sub)
	}
	return e.result(root, sub.ID)
}

func (e *svcEnv) result(root spanRef, id string) ([]byte, error) {
	s := root.child("service.result")
	payload, err := e.get("/v1/jobs/" + id + "/result")
	s.end()
	root.set("service.result_kb", float64(len(payload))/1024)
	return payload, err
}

// do sends one request and decodes a JSON answer; any status but want is
// an error.
func (e *svcEnv) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (e *svcEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// svcCounters are the daemon-wide counters the traced run differences
// across each round's timed window.
type svcCounters struct {
	jobs, runs   int64
	hits, misses float64
	journalBytes float64
}

// add accumulates after−before into c.
func (c *svcCounters) add(after, before svcCounters) {
	c.jobs += after.jobs - before.jobs
	c.runs += after.runs - before.runs
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
	c.journalBytes += after.journalBytes - before.journalBytes
}

// counters reads the job count and runs from the service, and the cache
// and journal gauges from GET /metrics.
func (e *svcEnv) counters() (svcCounters, error) {
	c := svcCounters{jobs: int64(len(e.svc.Jobs())), runs: e.svc.Runs()}
	data, err := e.get("/metrics")
	if err != nil {
		return c, err
	}
	want := map[string]*float64{
		"incognitod_cache_hits":    &c.hits,
		"incognitod_cache_misses":  &c.misses,
		"incognitod_journal_bytes": &c.journalBytes,
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if dst := want[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(val, 64); err != nil {
				return c, fmt.Errorf("/metrics %s: %w", name, err)
			}
		}
	}
	return c, nil
}

// verify checks iteration i's three ops and returns how many failed: the
// job must match the library run over its dataset, the hit must return
// the job's payload bytes, and the delta job must match the library run
// over the edited dataset and name its parent.
func (e *svcEnv) verify(i int, log io.Writer) int {
	set := &e.sets[i]
	failed := 0
	check := func(op string, err error) {
		if err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: iteration %d %s failed: %v\n", i, op, err)
		}
	}
	jobErr := set.jobErr
	if jobErr == nil {
		_, jobErr = matchPayload(set.job, set.ref)
	}
	check("job", jobErr)
	hitErr := set.hitErr
	if hitErr == nil && !bytes.Equal(set.hit, set.job) {
		hitErr = fmt.Errorf("cache hit payload differs from the job's")
	}
	check("hit", hitErr)
	dltErr := set.dltErr
	if dltErr == nil {
		var pl *service.ResultPayload
		if pl, dltErr = matchPayload(set.delta, set.deltaRef); dltErr == nil && (pl.Delta == nil || pl.Delta.Parent != set.jobID) {
			dltErr = fmt.Errorf("delta result does not name parent %s", set.jobID)
		}
	}
	check("delta", dltErr)
	return failed
}

// references runs the library over a set's dataset and over the edited
// dataset — sequential cold runs, which the daemon's results must equal.
func (e *svcEnv) references(set *svcSet) error {
	parse := func(data string) (*incognito.Table, error) { return incognito.ReadCSV(strings.NewReader(data)) }
	t, err := parse(set.data)
	if err != nil {
		return err
	}
	add, err := parse(set.addCSV)
	if err != nil {
		return err
	}
	del, err := parse(set.delCSV)
	if err != nil {
		return err
	}
	edited, err := incognito.ApplyRowDelta(t, add.Rows(), del.Rows())
	if err != nil {
		return err
	}
	qi, err := qispec.ParseQI(e.spec, qispec.Options{AllowFiles: true})
	if err != nil {
		return err
	}
	ctx, cfg := context.Background(), incognito.Config{K: 2, Parallelism: 1}
	if set.ref, err = releaseOf(ctx, t, qi, cfg, spanRef{}); err != nil {
		return fmt.Errorf("library run: %w", err)
	}
	if set.deltaRef, err = releaseOf(ctx, edited, qi, cfg, spanRef{}); err != nil {
		return fmt.Errorf("library run over the edited dataset: %w", err)
	}
	return nil
}

// matchPayload decodes a daemon result payload and compares it with a
// library run: the same solutions, work counters and released CSV bytes.
func matchPayload(payload []byte, ref *output) (*service.ResultPayload, error) {
	var pl service.ResultPayload
	if err := json.Unmarshal(payload, &pl); err != nil {
		return nil, fmt.Errorf("result payload: %w", err)
	}
	got := &output{csv: []byte(pl.ReleasedCSV), stats: incognito.Stats{
		NodesChecked: pl.Stats.NodesChecked, NodesMarked: pl.Stats.NodesMarked,
		Candidates: pl.Stats.Candidates, TableScans: pl.Stats.TableScans, Rollups: pl.Stats.Rollups,
	}}
	for _, s := range pl.Solutions {
		got.solutions = append(got.solutions, s.Levels)
	}
	return &pl, got.equal(ref)
}
