// Package service is the long-lived anonymization daemon behind
// cmd/incognitod: an HTTP JSON job API over the library's building blocks.
// Submissions enter a bounded worker-pool queue with per-job panic
// isolation, timeout, and memory-budget enforcement; identical submissions
// are deduplicated twice — concurrent ones coalesce onto the single
// in-flight run, completed ones are answered from a fingerprint-keyed LRU
// result cache with a byte budget — and SIGTERM drains gracefully:
// in-flight jobs finish (checkpointing under -checkpoint-dir), queued jobs
// are cancelled, the process exits 0.
//
// With -journal-dir the daemon is durable: every accepted job and state
// transition is appended to a checksummed, fsync'd write-ahead journal
// before it is acknowledged, and a restart replays the journal —
// re-enqueueing interrupted jobs (in-flight ones resume from their
// -checkpoint-dir snapshot, byte-identical to an uninterrupted run),
// tombstoning finished ones (their results answer 410 Gone), compacting
// the file, and sweeping orphaned checkpoints.
// Submissions are refused with 503 + Retry-After until the replay ends.
//
// The API surface (all JSON):
//
//	POST   /v1/jobs             submit {csv, qi, policy}; 202 queued,
//	                            200 when coalesced or served from cache
//	GET    /v1/jobs             list every job the daemon knows
//	GET    /v1/jobs/{id}        status, live progress, pct and ETA
//	GET    /v1/jobs/{id}/result the solution set, chosen best, released CSV
//	GET    /v1/jobs/{id}/trace  the job's span tree (?format=chrome for
//	                            a Perfetto/chrome://tracing file)
//	POST   /v1/jobs/{id}/delta  re-anonymize after an edit {add_csv, del_csv},
//	                            reusing the parent job's retained state; the
//	                            parent's cache entry is invalidated
//	DELETE /v1/jobs/{id}        cancel (dequeue, or cancel the run context)
//	GET    /healthz             liveness: 200 while the process serves
//	GET    /readyz              readiness: 503 during journal replay and
//	                            drain, 200 in between
//	GET    /debug/bundle        tar.gz diagnostic bundle (metrics, job
//	                            statuses, span trees, build/runtime info)
//	GET    /metrics             Prometheus text format (plus /debug/pprof)
//
// Every response carries an X-Request-Id header — generated, or echoed
// from the request's own X-Request-Id — and the same ID appears in the
// structured access log and on the job it submitted, tying a client retry
// story together across the three.
//
// A daemon-served result is bit-identical to a cmd/incognito run over the
// same dataset, QI spec, and policy: both parse the spec through
// internal/qispec and release through the same Solution.Apply path — CI
// diffs the two byte for byte.
package service

import (
	"fmt"
	"time"

	incognito "incognito"
	"incognito/internal/qispec"
	"incognito/internal/resilience"
)

// SubmitRequest is the POST /v1/jobs body: the dataset as inline CSV text
// (first record is the header), the quasi-identifier spec in the CLI's
// 'Col=hierarchy;…' grammar, and the per-job policy.
type SubmitRequest struct {
	CSV    string `json:"csv"`
	QI     string `json:"qi"`
	Policy Policy `json:"policy"`
	// RequestID is not part of the JSON body (the decoder rejects unknown
	// fields); the HTTP layer fills it from the X-Request-Id plumbing so
	// the job record remembers which request created it.
	RequestID string `json:"-"`
}

// Policy is the per-job knob set — the request-body equivalent of the
// cmd/incognito flags. Zero values take the daemon's defaults.
type Policy struct {
	// Algorithm is one of basic, superroots, cube, materialized, bottomup,
	// bottomup-rollup, or binary (default basic).
	Algorithm string `json:"algorithm,omitempty"`
	// K is the anonymity parameter. Required, >= 1.
	K int `json:"k"`
	// MaxSuppress is the tuple-suppression threshold (default 0).
	MaxSuppress int `json:"max_suppress,omitempty"`
	// Parallelism bounds the run's intra-process workers (0 = daemon
	// default; the daemon's default of 0 means all cores).
	Parallelism int `json:"parallelism,omitempty"`
	// MemBudget is a per-job soft memory budget like "64Mi"; empty takes
	// the daemon default. Over 2x the budget the job fails with a partial
	// result rather than growing without bound.
	MemBudget string `json:"mem_budget,omitempty"`
	// Timeout is a Go duration like "30s"; empty takes the daemon default,
	// "0" disables even when the daemon has a default.
	Timeout string `json:"timeout,omitempty"`
	// Criterion picks the released solution: height (default), precision,
	// discernibility, or avgclass.
	Criterion string `json:"criterion,omitempty"`
	// MaterializeBudget is the partial-cube group budget of the
	// materialized algorithm (ignored otherwise).
	MaterializeBudget int `json:"materialize_budget,omitempty"`
	// RetainState keeps the run's incremental-reanonymization state on the
	// finished job, making it a valid parent for POST /v1/jobs/{id}/delta.
	// Only the basic algorithm supports it, and a retain-state job is never
	// answered from the cache or coalesced onto another job (both would
	// skip the run that captures the state); its result still lands in the
	// cache for later plain submissions. Incompatible with a memory budget
	// (a budget-degraded run cannot capture a complete state — the
	// daemon's default budget is ignored for these jobs).
	RetainState bool `json:"retain_state,omitempty"`
}

// DeltaRequest is the POST /v1/jobs/{id}/delta body: the rows to append
// and delete, each as CSV text whose header must equal the parent
// dataset's header. Deletions match whole rows by content (the first
// matching occurrence each); deleting a row the table does not contain is
// a 400. The delta job inherits the parent's policy and always retains
// state, so delta jobs chain.
type DeltaRequest struct {
	AddCSV string `json:"add_csv,omitempty"`
	DelCSV string `json:"del_csv,omitempty"`
	// RequestID is filled by the HTTP layer from X-Request-Id, like
	// SubmitRequest's.
	RequestID string `json:"-"`
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// CacheHit is true when the submission was answered from the result
	// cache without queueing a run.
	CacheHit bool `json:"cache_hit"`
	// Coalesced is true when the submission attached to an identical job
	// already queued or running; ID names that job.
	Coalesced bool `json:"coalesced"`
}

// StatusResponse answers GET /v1/jobs/{id} and is the element type of the
// GET /v1/jobs listing.
type StatusResponse struct {
	ID        string          `json:"id"`
	RequestID string          `json:"request_id,omitempty"`
	State     State           `json:"state"`
	CacheHit  bool            `json:"cache_hit"`
	Coalesced int64           `json:"coalesced_submissions,omitempty"`
	Error     string          `json:"error,omitempty"`
	Created   time.Time       `json:"created"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Progress  *ProgressStatus `json:"progress,omitempty"`
	// DeltaOf names the parent job a delta job was submitted against.
	DeltaOf string `json:"delta_of,omitempty"`
	// Recovered marks a job re-enqueued by startup journal replay after a
	// crash or restart.
	Recovered bool `json:"recovered,omitempty"`
}

// ProgressStatus is the live view of a running job, read from the run's
// Progress atomics at request time.
type ProgressStatus struct {
	Phase         string  `json:"phase"`
	NodesVisited  int64   `json:"nodes_visited"`
	NodesTotal    int64   `json:"nodes_total"`
	TuplesScanned int64   `json:"tuples_scanned"`
	TableScans    int64   `json:"table_scans"`
	Rollups       int64   `json:"rollups"`
	ElapsedMS     int64   `json:"elapsed_ms"`
	Pct           float64 `json:"pct,omitempty"`
	ETAMS         int64   `json:"eta_ms,omitempty"`
}

// ResultPayload answers GET /v1/jobs/{id}/result. It is rendered once at
// job completion, and its marshaled bytes are what the result cache stores
// and what every later identical submission is answered with.
type ResultPayload struct {
	// Solutions is every k-anonymous full-domain generalization found, in
	// height order (a single entry for the binary-search algorithm).
	Solutions []SolutionPayload `json:"solutions"`
	// Complete reports whether Solutions is the full set (false only for
	// the binary-search algorithm).
	Complete bool `json:"complete"`
	// Best is the solution chosen under the policy criterion.
	Best SolutionPayload `json:"best"`
	// ReleasedCSV is Best applied to the table — byte-identical to the CSV
	// cmd/incognito writes for the same inputs.
	ReleasedCSV string `json:"released_csv"`
	// Stats are the search's work counters.
	Stats StatsPayload `json:"stats"`
	// Delta reports a delta job's work savings; absent on cold jobs. The
	// solutions, stats, and released CSV above are bit-identical to what a
	// cold job over the edited dataset would produce.
	Delta *DeltaStatsPayload `json:"delta,omitempty"`
}

// DeltaStatsPayload quantifies how much work a delta run skipped.
type DeltaStatsPayload struct {
	// Parent is the job whose retained state the delta ran against.
	Parent string `json:"parent"`
	// RowsRescanned counts rows the run actually re-touched: the delta rows
	// themselves plus whole-table re-scans forced by nodes the saved state
	// could not screen.
	RowsRescanned int64 `json:"rows_rescanned"`
	// NodesScreened counts lattice nodes whose verdict was proven from the
	// saved per-node record without rebuilding a frequency set.
	NodesScreened int64 `json:"nodes_screened"`
	// NodesRevalidated counts nodes that needed a full recount.
	NodesRevalidated int64 `json:"nodes_revalidated"`
}

// SolutionPayload describes one generalization.
type SolutionPayload struct {
	Levels    []int    `json:"levels"`
	Names     []string `json:"names"`
	Height    int      `json:"height"`
	Precision float64  `json:"precision"`
}

// StatsPayload mirrors incognito.Stats on the wire.
type StatsPayload struct {
	NodesChecked int `json:"nodes_checked"`
	NodesMarked  int `json:"nodes_marked"`
	Candidates   int `json:"candidates"`
	TableScans   int `json:"table_scans"`
	Rollups      int `json:"rollups"`
}

// ErrorResponse is the body of every non-2xx API answer. RetryAfterMS,
// present on 429 and on 503s that will pass (queue full, journal replay,
// drain), is a jittered backoff hint — clients that sleep exactly this
// long will not reconverge on the same retry instant.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// resolved is a Policy with every string parsed and every default applied
// — the form the worker runs and the cache key is derived from.
type resolved struct {
	algorithm   incognito.Algorithm
	k           int
	maxSuppress int
	parallelism int
	memBudget   int64
	timeout     time.Duration
	criterion   incognito.Criterion
	critName    string
	matBudget   int
	retainState bool
}

// resolve validates p against the daemon's defaults. Errors are request
// errors (HTTP 400): the submitter's mistake, never the daemon's.
func (c *Config) resolve(p Policy) (resolved, error) {
	var r resolved
	if p.K < 1 {
		return r, fmt.Errorf("policy.k must be >= 1, got %d", p.K)
	}
	if p.MaxSuppress < 0 {
		return r, fmt.Errorf("policy.max_suppress must be >= 0, got %d", p.MaxSuppress)
	}
	if p.Parallelism < 0 {
		return r, fmt.Errorf("policy.parallelism must be >= 0, got %d", p.Parallelism)
	}
	if p.MaterializeBudget < 0 {
		return r, fmt.Errorf("policy.materialize_budget must be >= 0, got %d", p.MaterializeBudget)
	}
	r.k, r.maxSuppress, r.matBudget = p.K, p.MaxSuppress, p.MaterializeBudget

	algoName := p.Algorithm
	if algoName == "" {
		algoName = "basic"
	}
	algo, err := qispec.ParseAlgorithm(algoName)
	if err != nil {
		return r, fmt.Errorf("policy.algorithm: unknown algorithm %q", algoName)
	}
	r.algorithm = algo

	r.parallelism = p.Parallelism
	if r.parallelism == 0 {
		r.parallelism = c.DefaultParallelism
	}

	r.memBudget = c.DefaultMemBudget
	if p.MemBudget != "" {
		b, err := resilience.ParseByteSize(p.MemBudget)
		if err != nil {
			return r, fmt.Errorf("policy.mem_budget: %v", err)
		}
		r.memBudget = b
	}

	r.timeout = c.DefaultTimeout
	if p.Timeout != "" {
		d, err := time.ParseDuration(p.Timeout)
		if err != nil || d < 0 {
			return r, fmt.Errorf("policy.timeout: bad duration %q", p.Timeout)
		}
		r.timeout = d
	}

	r.critName = p.Criterion
	if r.critName == "" {
		r.critName = "height"
	}
	crit, err := qispec.ParseCriterion(r.critName)
	if err != nil {
		return r, fmt.Errorf("policy.criterion: unknown criterion %q", p.Criterion)
	}
	r.criterion = crit

	if p.RetainState {
		if r.algorithm != incognito.BasicIncognito {
			return r, fmt.Errorf("policy.retain_state: only the basic algorithm retains delta state, not %s", r.algorithm)
		}
		if p.MemBudget != "" {
			return r, fmt.Errorf("policy.retain_state: incompatible with a memory budget (a degraded run cannot capture a complete state)")
		}
		// The daemon default budget is also dropped: state capture needs the
		// run to finish exactly, never salvage a partial result.
		r.memBudget = 0
		r.retainState = true
	}
	return r, nil
}
