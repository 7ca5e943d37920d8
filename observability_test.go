package incognito_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	incognito "incognito"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

var allAlgorithms = []incognito.Algorithm{
	incognito.BasicIncognito,
	incognito.SuperRootsIncognito,
	incognito.CubeIncognito,
	incognito.MaterializedIncognito,
	incognito.BottomUp,
	incognito.BottomUpRollup,
	incognito.BinarySearch,
}

// TestAnonymizeContextCancelled: every algorithm fails fast on an
// already-cancelled context with an error wrapping context.Canceled.
func TestAnonymizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab := patientsTable(t)
	for _, algo := range allAlgorithms {
		_, err := incognito.AnonymizeContext(ctx, tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo})
		if err == nil {
			t.Fatalf("%v: cancelled context accepted", algo)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not wrap context.Canceled", algo, err)
		}
	}
}

// TestAnonymizeTracerTransparent: enabling the tracer changes neither
// solutions nor statistics, and the tracer serializes to a valid JSON
// document with at least one span per run.
func TestAnonymizeTracerTransparent(t *testing.T) {
	tab := patientsTable(t)
	for _, algo := range allAlgorithms {
		want, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		tracer := incognito.NewTracer()
		got, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo, Tracer: tracer})
		if err != nil {
			t.Fatalf("%v traced: %v", algo, err)
		}
		if want.Len() != got.Len() || !reflect.DeepEqual(want.Stats(), got.Stats()) {
			t.Fatalf("%v: result differs with tracing on", algo)
		}
		for i, s := range want.Solutions() {
			if !reflect.DeepEqual(s.Levels(), got.Solutions()[i].Levels()) {
				t.Fatalf("%v: solution %d differs with tracing on", algo, i)
			}
		}

		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			t.Fatalf("%v: writing trace: %v", algo, err)
		}
		var doc struct {
			Version  int              `json:"version"`
			Attrs    map[string]any   `json:"attrs"`
			Counters map[string]int64 `json:"counters"`
			Spans    []map[string]any `json:"spans"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%v: trace is not valid JSON: %v", algo, err)
		}
		if len(doc.Spans) == 0 {
			t.Fatalf("%v: trace has no spans", algo)
		}
		if doc.Attrs["algorithm"] != algo.String() {
			t.Fatalf("%v: trace algorithm attr = %v", algo, doc.Attrs["algorithm"])
		}
		// The document's aggregate counters mirror the public Stats.
		st := got.Stats()
		for counter, want := range map[string]int64{
			"nodes_checked": int64(st.NodesChecked),
			"nodes_marked":  int64(st.NodesMarked),
			"candidates":    int64(st.Candidates),
			"table_scans":   int64(st.TableScans),
			"rollups":       int64(st.Rollups),
		} {
			if got := doc.Counters[counter]; got != want {
				t.Errorf("%v: counter %q = %d in trace, %d in stats", algo, counter, got, want)
			}
		}
	}
}

// TestAnonymizeTelemetryTransparent is the tentpole's acceptance gate:
// with the FULL observability bundle enabled (tracer + progress +
// run-metrics), every algorithm at parallelism 1, 2, and GOMAXPROCS
// produces Solutions and Stats bit-identical to the bare run, and the
// progress counters end up consistent with the final statistics.
func TestAnonymizeTelemetryTransparent(t *testing.T) {
	tab := patientsTable(t)
	reg := telemetry.NewRegistry()
	for _, algo := range allAlgorithms {
		bare, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for _, par := range []int{1, 2, 0} {
			progress := incognito.NewProgress()
			got, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{
				K:           2,
				Algorithm:   algo,
				Parallelism: par,
				Tracer:      incognito.NewTracer(),
				Progress:    progress,
				Metrics:     reg.NewRunMetrics(),
			})
			if err != nil {
				t.Fatalf("%v parallelism %d: %v", algo, par, err)
			}
			if !reflect.DeepEqual(bare.Stats(), got.Stats()) {
				t.Errorf("%v parallelism %d: stats differ with telemetry on: %+v vs %+v",
					algo, par, got.Stats(), bare.Stats())
			}
			if bare.Len() != got.Len() {
				t.Fatalf("%v parallelism %d: %d solutions with telemetry, %d without",
					algo, par, got.Len(), bare.Len())
			}
			for i, s := range bare.Solutions() {
				if !reflect.DeepEqual(s.Levels(), got.Solutions()[i].Levels()) {
					t.Errorf("%v parallelism %d: solution %d differs with telemetry on", algo, par, i)
				}
			}
			snap := progress.Snapshot()
			st := got.Stats()
			if snap.Phase == "" {
				t.Errorf("%v parallelism %d: no phase was ever set", algo, par)
			}
			if snap.NodesVisited == 0 || snap.NodesTotal == 0 {
				t.Errorf("%v parallelism %d: progress never advanced: %+v", algo, par, snap)
			}
			if snap.NodesTotal != int64(st.Candidates) {
				t.Errorf("%v parallelism %d: progress candidates %d != stats %d",
					algo, par, snap.NodesTotal, st.Candidates)
			}
			if snap.TableScans != int64(st.TableScans) {
				t.Errorf("%v parallelism %d: progress table scans %d != stats %d",
					algo, par, snap.TableScans, st.TableScans)
			}
		}
	}
	// Every run fed the shared registry; the exposition must stay valid.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "incognito_freqset_groups_count") {
		t.Errorf("registry missing run-metric observations:\n%s", sb.String())
	}
}

// TestAnonymizeDeltaTraceLayers: with a tracer set, a delta run's trace
// shows the delta layers — delta.edit with the table's row counts before
// and after the edit, delta.bind around the hierarchy binding,
// delta.prepare with its base-group and delta-row counts, the screen time
// on the search span, and delta.capture around the follow-on state — in
// run order.
func TestAnonymizeDeltaTraceLayers(t *testing.T) {
	tab := censusTable(t, 200, 71)
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 3, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	add := [][]string{tab.Row(7)}
	del := [][]string{tab.Row(0), tab.Row(50)}
	tracer := incognito.NewTracer()
	got, err := incognito.AnonymizeDelta(context.Background(), tab, patientsQI(),
		incognito.Config{K: 3, Tracer: tracer}, cold.State(), add, del)
	if err != nil {
		t.Fatal(err)
	}
	doc := tracer.Export()
	one := func(name string) *trace.SpanDoc {
		t.Helper()
		spans := doc.Find(name)
		if len(spans) != 1 {
			t.Fatalf("trace has %d %q spans, want 1", len(spans), name)
		}
		return spans[0]
	}
	edit, bind := one("delta.edit"), one("delta.bind")
	prepare, search, capture := one("delta.prepare"), one("search"), one("delta.capture")
	for attr, want := range map[string]int{
		"rows_in":  tab.NumRows(),
		"rows_out": got.Table.NumRows(),
	} {
		if got := edit.Attrs[attr]; got != want {
			t.Errorf("delta.edit attr %s = %v, want %d", attr, got, want)
		}
	}
	for attr, want := range map[string]int{
		"state_rows": cold.State().Rows,
		"added":      len(add),
		"removed":    len(del),
	} {
		if got := prepare.Attrs[attr]; got != want {
			t.Errorf("delta.prepare attr %s = %v, want %d", attr, got, want)
		}
	}
	if got.Counters.NodesScreened == 0 {
		t.Fatal("delta run screened no nodes")
	}
	if ns := search.Counters["delta_screen_ns"]; ns <= 0 {
		t.Errorf("search span delta_screen_ns = %d after %d screened nodes", ns, got.Counters.NodesScreened)
	}
	if !(edit.StartUS+edit.DurUS <= bind.StartUS && bind.StartUS+bind.DurUS <= prepare.StartUS &&
		prepare.StartUS <= search.StartUS && search.StartUS <= capture.StartUS) {
		t.Errorf("delta spans out of order: edit@%dus+%d bind@%dus+%d prepare@%dus search@%dus capture@%dus",
			edit.StartUS, edit.DurUS, bind.StartUS, bind.DurUS, prepare.StartUS, search.StartUS, capture.StartUS)
	}
}
