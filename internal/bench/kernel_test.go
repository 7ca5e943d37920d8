package bench

import (
	"context"
	"testing"
)

// kernelCells runs the kernel experiment on a small Adults sample.
func kernelCells(t *testing.T, qi int) []Cell {
	t.Helper()
	r, err := Compare(context.Background(), Obs{}, "kernel", []Workload{{Data: small(), QISize: qi, K: 2}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Cells
}

// TestKernelMicrosAreDenseEligibleAndIdentical checks the microbenchmark
// layout picker lands on a dense-eligible generalization and that both
// kernels agree on the scan and the rollup, with the dense per-tuple hot
// path allocation-free.
func TestKernelMicrosAreDenseEligibleAndIdentical(t *testing.T) {
	micros := kernelCells(t, 4)
	if len(micros) != 2 || micros[0].Op != "scan" || micros[1].Op != "rollup" {
		t.Fatalf("got %+v, want two micro rows (scan, rollup)", micros)
	}
	for _, m := range micros {
		if m.Counters["dense_eligible"] != 1 {
			t.Errorf("%s: layout %v (%d cells) is not dense-eligible", m.Op, m.Levels, m.Counters["cells"])
		}
		if !m.Identical {
			t.Errorf("%s: kernels disagree", m.Op)
		}
		if m.Counters["groups"] <= 0 {
			t.Errorf("%s: no groups", m.Op)
		}
		if a := m.Counters["dense_add_allocs_per_op"]; a != 0 {
			t.Errorf("%s: dense Add allocates %d objects/op, want 0", m.Op, a)
		}
	}
	if _, ok := micros[0].Counters["dense_add_allocs_per_op"]; !ok {
		t.Error("scan row does not pin dense_add_allocs_per_op")
	}
}

// TestKernelReportRenders smoke-tests both output formats.
func TestKernelReportRenders(t *testing.T) {
	r, err := Compare(context.Background(), Obs{}, "kernel", []Workload{{Data: small(), QISize: 3, K: 2}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRenders(t, r, "kernel experiment: sparse vs dense", "dense_max_cells=", "op=scan", "op=rollup")
}
