// Package resilience implements the fault-tolerance primitives the search
// algorithms are threaded through: typed worker-panic errors (so a panic in
// one goroutine of a parallel phase surfaces as an ordinary error carrying
// the worker's span path instead of crashing the process), a soft memory
// accountant driving the degradation ladder (dense→sparse kernels, shed
// materialization, best-effort abort with ErrDegraded), and versioned,
// checksummed snapshots of node verdicts for checkpoint/resume.
//
// The package depends only on the standard library so every layer of the
// module — relation kernels, core search, baselines, telemetry — can use it
// without import cycles.
package resilience

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a worker panic converted into an error. Site is the span
// path of the goroutine that panicked (outer phases prefixed as the panic
// propagates, e.g. "search/iteration[2]/family[0,1]/scan_shard[3]"), Value
// the recovered panic value, and Stack the goroutine stack captured at
// recovery time.
type PanicError struct {
	Site  string
	Value any
	Stack []byte
}

// Error renders the site and the panic value; the stack is available on the
// struct for logs.
func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: panic in %s: %v", e.Site, e.Value)
}

// AsPanicError converts a recovered panic value into a *PanicError. A value
// that already is one (a shard panic rethrown by its coordinator) keeps its
// original value and stack; the outer site is prefixed onto its span path,
// so the final error names the whole chain from phase to worker.
func AsPanicError(site string, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		pe.Site = site + "/" + pe.Site
		return pe
	}
	return &PanicError{Site: site, Value: v, Stack: debug.Stack()}
}
