package bench

import (
	"context"
	"testing"

	"incognito/internal/dataset"
)

// TestParallelExperimentCells runs the serial-vs-parallel comparison
// in-process: every cell must be identical, and the scheduler fields must
// describe a plausible environment (the timing fields are free to be
// anything, including zero on a single-core box).
func TestParallelExperimentCells(t *testing.T) {
	d := dataset.Adults(300, 7)
	algos := []Algo{BasicIncognito, CubeIncognito}
	r, err := Compare(context.Background(), Obs{}, "parallel", []Workload{{d, 4, 2, algos[0]}, {d, 4, 2, algos[1]}}, Options{Parallelism: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(algos) || r.Info["parallelism"] != 2 {
		t.Fatalf("got %d cells and info %v, want %d cells at parallelism 2", len(r.Cells), r.Info, len(algos))
	}
	for _, c := range r.Cells {
		if !c.Identical {
			t.Errorf("%s: parallel run diverged from the serial run", c.Algo)
		}
		if c.Info["gomaxprocs"] < 1 || c.Info["workers"] < 1 || c.Rows != d.Table.NumRows() {
			t.Errorf("%s: implausible environment fields %+v", c.Algo, c)
		}
		if u := c.Info["utilization"]; c.RefMS < 0 || c.SubjectMS < 0 || u < 0 || u > 1 {
			t.Errorf("%s: out-of-range timing fields %+v", c.Algo, c)
		}
		if c.Counters["solutions"] == 0 || c.Counters["candidates"] == 0 {
			t.Errorf("%s: empty work counters %+v", c.Algo, c)
		}
	}
}

func TestParallelReportRenders(t *testing.T) {
	r, err := Compare(context.Background(), Obs{}, "parallel", []Workload{{dataset.Adults(200, 7), 3, 2, BasicIncognito}},
		Options{Parallelism: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRenders(t, r, "parallel experiment: serial vs parallel", "algo=Basic Incognito", "identical=true", "workers=")
}
