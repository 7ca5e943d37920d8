package bench

import (
	"context"
	"reflect"
	"testing"
)

// TestIncrementalCellsIdenticalAndBounded is the delta runs' acceptance
// contract at bench scale: on a small Adults sample, every delta cell
// (kernel × parallelism) reproduces the cold run's solutions and Stats
// bit for bit while re-scanning at most 10% of the cold run's rows and
// revalidating at most 10% of its nodes.
func TestIncrementalCellsIdenticalAndBounded(t *testing.T) {
	r, err := Compare(context.Background(), Obs{}, "incremental", []Workload{{Data: small(), QISize: 4, K: 2}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := r.Cells
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (kernel {auto,sparse} × parallelism {1,2})", len(cells))
	}
	for _, c := range cells {
		name := c.Kernel + "/p=" + string(rune('0'+c.Parallelism))
		n := c.Counters
		if !c.Identical {
			t.Errorf("%s: delta run diverged from the cold run", name)
		}
		if n["solutions"] <= 0 {
			t.Errorf("%s: no solutions recorded", name)
		}
		if n["added_rows"] == 0 || n["removed_rows"] == 0 {
			t.Errorf("%s: empty delta (added=%d removed=%d)", name, n["added_rows"], n["removed_rows"])
		}
		if r := c.Info["row_rescan_ratio"]; r <= 0 || r > 0.10 {
			t.Errorf("%s: row rescan ratio %.4f outside (0, 0.10]", name, r)
		}
		if r := c.Info["node_revalidation_ratio"]; r < 0 || r > 0.10 {
			t.Errorf("%s: node revalidation ratio %.4f outside [0, 0.10]", name, r)
		}
		if n["nodes_screened"]+n["nodes_revalidated"] != n["nodes_checked"] {
			t.Errorf("%s: screened %d + revalidated %d != nodes checked %d",
				name, n["nodes_screened"], n["nodes_revalidated"], n["nodes_checked"])
		}
	}
	// The deterministic counters must not depend on the kernel or the
	// worker count — only the timings may differ across cells.
	for _, c := range cells[1:] {
		if !reflect.DeepEqual(c.Counters, cells[0].Counters) || !reflect.DeepEqual(c.Info, cells[0].Info) {
			t.Errorf("counters differ between cells:\n  %+v\n  %+v", cells[0], c)
		}
	}
}

// TestIncrementalReportRenders smoke-tests both output formats.
func TestIncrementalReportRenders(t *testing.T) {
	r, err := Compare(context.Background(), Obs{}, "incremental", []Workload{{Data: small(), QISize: 3, K: 2}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRenders(t, r, "incremental experiment: cold vs delta", "delta_every=200", "kernel=sparse parallelism=2", "row_rescan_ratio=")
}
