package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"incognito/internal/telemetry"
)

// route pairs one mux registration with its index description, so the
// GET / endpoint table is generated from what is actually mounted and
// cannot drift from the handler set.
type route struct {
	pattern string // method + path, e.g. "POST /v1/jobs"
	desc    string
	h       http.HandlerFunc
}

func (s *Service) routes() []route {
	return []route{
		{"POST /v1/jobs", "submit {csv, qi, policy}", s.handleSubmit},
		{"GET /v1/jobs", "list jobs", s.handleList},
		{"GET /v1/jobs/{id}", "job status and live progress", s.handleStatus},
		{"GET /v1/jobs/{id}/result", "solution set and released CSV", s.handleResult},
		{"GET /v1/jobs/{id}/trace", "span tree; ?format=chrome for Perfetto", s.handleTrace},
		{"POST /v1/jobs/{id}/delta", "re-anonymize after an edit {add_csv, del_csv}", s.handleDelta},
		{"DELETE /v1/jobs/{id}", "cancel a job", s.handleCancel},
		{"GET /healthz", "liveness (200 while the process serves)", s.handleHealth},
		{"GET /readyz", "readiness (503 during journal replay and drain)", s.handleReady},
		{"GET /debug/bundle", "tar.gz diagnostic bundle", s.handleBundle},
	}
}

// mountDesc annotates the telemetry endpoints in the index; patterns
// without an entry get a generic pprof description.
var mountDesc = map[string]string{
	"/metrics":      "Prometheus text format",
	"/debug/pprof/": "runtime profiles (pprof index)",
}

// Handler builds the daemon's HTTP mux: the /v1 job API plus the standard
// telemetry surface (/metrics, /debug/pprof) mounted on the same listener,
// so one scrape target covers the whole process. Every request passes
// through the observability middleware: an X-Request-Id is honored or
// generated and echoed, and (with a Logger configured) each request is
// logged with method, path, status, bytes, and duration.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	rts := s.routes()
	for _, rt := range rts {
		mux.HandleFunc(rt.pattern, rt.h)
	}
	for _, pattern := range telemetry.Mount(mux, s.cfg.Registry) {
		desc, ok := mountDesc[pattern]
		if !ok {
			desc = "runtime profiles (pprof)"
		}
		rts = append(rts, route{pattern: "GET " + pattern, desc: desc})
	}
	mux.HandleFunc("GET /{$}", indexHandler(rts))
	return s.withObservability(mux)
}

// indexHandler renders the endpoint table from the registered routes.
func indexHandler(rts []route) http.HandlerFunc {
	var b strings.Builder
	b.WriteString("incognitod endpoints:\n")
	width := 0
	for _, rt := range rts {
		if len(rt.pattern) > width {
			width = len(rt.pattern)
		}
	}
	for _, rt := range rts {
		method, path, _ := strings.Cut(rt.pattern, " ")
		fmt.Fprintf(&b, "  %-6s %-*s %s\n", method, width-len(method), path, rt.desc)
	}
	index := b.String()
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, index)
	}
}

// requestIDKey carries the request ID through the request context.
type requestIDKey struct{}

// newRequestID returns a fresh 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unidentified" // crypto/rand failing is a dead process anyway
	}
	return hex.EncodeToString(b[:])
}

// requestIDFrom returns the middleware-assigned request ID, or "".
func requestIDFrom(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status and body size for the
// access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// withObservability is the access-log + request-ID middleware: an
// X-Request-Id from the client is honored (so a caller can stitch the
// daemon's log into its own), otherwise one is generated; either way it
// is echoed on the response and stored in the request context for the
// submit path to attach to the job.
func (s *Service) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-Id", rid)
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid)))
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				slog.String("request_id", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sr.status),
				slog.Int64("bytes", sr.bytes),
				slog.Duration("duration", time.Since(start)),
			)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// An encode failure past the header cannot be reported to the client;
	// the body is simply truncated and the status already said what counts.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeSubmitError renders a submission rejection. Rejections that will
// pass (queue full, journal replay, drain) carry a jittered backoff hint:
// a Retry-After header in whole seconds (rounded up — retrying early is
// the one wrong move) and the precise retry_after_ms in the body.
func writeSubmitError(w http.ResponseWriter, serr *submitError) {
	if serr.retryAfter > 0 {
		secs := (serr.retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, serr.status, ErrorResponse{Error: serr.msg, RetryAfterMS: serr.retryAfter.Milliseconds()})
		return
	}
	writeError(w, serr.status, "%s", serr.msg)
}

// decodeBody decodes a request body holding exactly one JSON value into v.
// It refuses fields v does not declare (retired policy fields included)
// and anything but white space after the value: a second object would
// otherwise be silently ignored.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			return err
		}
		return fmt.Errorf("unexpected data after the JSON value")
	}
	return nil
}

// decodeSubmission decodes a job or delta submission into v, reading at
// most the result cache's byte budget: a dataset larger than the cache can
// hold is refused before the daemon buffers it. A body over the limit
// gets 413, any other bad body 400; false means the response is written.
func (s *Service) decodeSubmission(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeBody(http.MaxBytesReader(w, r.Body, s.cache.maxBytes), v)
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit (the result cache's byte budget, -cache-max-bytes)", tooLarge.Limit)
		return false
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "request body: %v", err)
		return false
	}
	return true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.decodeSubmission(w, r, &req) {
		return
	}
	req.RequestID = requestIDFrom(r)
	resp, serr := s.Submit(req)
	if serr != nil {
		writeSubmitError(w, serr)
		return
	}
	// A fresh job is 202 Accepted (the work is pending); a cache hit or a
	// coalesced duplicate answers with 200 (the work already exists).
	status := http.StatusAccepted
	if resp.CacheHit || resp.Coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// handleDelta submits an incremental re-anonymization against a finished
// retain-state job. Always 202 on success: delta jobs are never answered
// from the cache (the parent's entry was just invalidated) or coalesced.
func (s *Service) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !s.decodeSubmission(w, r, &req) {
		return
	}
	req.RequestID = requestIDFrom(r)
	resp, serr := s.SubmitDelta(r.PathValue("id"), req)
	if serr != nil {
		writeSubmitError(w, serr)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]StatusResponse, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, errMsg, result, gone := j.state, j.err, j.result, j.resultGone
	j.mu.Unlock()
	switch state {
	case StateDone:
		if gone {
			writeError(w, http.StatusGone,
				"job %s finished before a daemon restart; the result was not retained — resubmit the job", j.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed, StateCancelled:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.ID, state, errMsg)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s until done", j.ID, state, j.ID)
	}
}

// handleTrace serves a job's span tree: indented Document JSON by
// default, or a chrome://tracing / Perfetto file with ?format=chrome. A
// queued or running job gets a live snapshot (open spans run to "now");
// a finished job gets the sealed trace while the flight recorder holds it.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	doc := j.TraceDocument()
	if doc == nil {
		writeError(w, http.StatusNotFound,
			"no trace for job %s (tracing disabled, a cache-hit job, or evicted from the flight recorder)", j.ID)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	case "chrome":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+"-trace.json"))
		_ = telemetry.WriteChromeTrace(doc, w)
	default:
		writeError(w, http.StatusBadRequest, "format must be json or chrome, got %q", r.URL.Query().Get("format"))
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, cancelled := s.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !cancelled {
		writeError(w, http.StatusConflict, "job %s already finished", id)
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusOK, j.Status())
}

// handleHealth is pure liveness: the process is up and serving. Restart
// decisions belong to /readyz — a daemon replaying its journal is alive.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 503 while startup recovery is replaying the
// journal and once a drain has begun, 200 in between. Load balancers key
// on this; kubelet-style liveness keys on /healthz.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.Recovering():
		writeError(w, http.StatusServiceUnavailable, "recovering: replaying the job journal")
	case s.Draining():
		writeError(w, http.StatusServiceUnavailable, "draining")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
