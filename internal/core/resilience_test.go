package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"incognito/internal/resilience"
)

// resilienceVariants are the checkpointable search configurations of the
// kill-and-resume sweep: each runs the algorithm end to end on its own copy
// of the input.
var resilienceVariants = []struct {
	name string
	run  func(in Input) (*Result, error)
}{
	{"Basic", func(in Input) (*Result, error) { return Run(in, Basic) }},
	{"SuperRoots", func(in Input) (*Result, error) { return Run(in, SuperRoots) }},
	{"Cube", func(in Input) (*Result, error) { return Run(in, Cube) }},
	{"Materialized", func(in Input) (*Result, error) {
		mat := MaterializeBudget(&in, 512)
		return RunMaterialized(in, mat)
	}},
}

// checkpointDir is where a kill-and-resume subtest writes its snapshots: a
// subdirectory of INCOGNITO_CKPT_DIR when set — kept on failure so CI can
// upload the exact checkpoint files of the failing boundary — and a test
// temp dir otherwise.
func checkpointDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("INCOGNITO_CKPT_DIR")
	if root == "" {
		return t.TempDir()
	}
	dir, err := os.MkdirTemp(root, "resume-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// TestKillAndResumeBitIdentical is the tentpole's contract: a run killed at
// ANY checkpoint boundary — every subset-size iteration, every completed
// family, every breadth-first level — must resume from its snapshot to
// Solutions and Stats bit-identical to an uninterrupted run, across
// variants, parallelism levels, and kernels. The AfterSave hook cancels the
// run right after the b-th snapshot lands, for every b until the run
// outlives its checkpoints.
func TestKillAndResumeBitIdentical(t *testing.T) {
	type config struct {
		input    int
		parallel []int
		sparse   []bool
	}
	configs := []config{
		{0, parallelismLevels(), []bool{false, true}}, // Patients: full matrix
		{1, []int{1, parallelismLevels()[len(parallelismLevels())-1]}, []bool{false}},
	}
	inputs := determinismInputs(t)
	boundaries := make(map[string]bool)
	for _, cfg := range configs {
		base := inputs[cfg.input]
		for _, variant := range resilienceVariants {
			for _, p := range cfg.parallel {
				for _, sparse := range cfg.sparse {
					name := fmt.Sprintf("input=%d/%s/p=%d/sparse=%v", cfg.input, variant.name, p, sparse)
					t.Run(name, func(t *testing.T) {
						ref := base
						ref.Parallelism = p
						ref.SparseKernel = sparse
						want, err := variant.run(ref)
						if err != nil {
							t.Fatal(err)
						}

						dir := checkpointDir(t)
						completed := false
						const maxSaves = 300
						for b := 1; b <= maxSaves; b++ {
							path := filepath.Join(dir, fmt.Sprintf("kill-%d.ckpt", b))
							ck := resilience.NewCheckpointer(path)
							ctx, cancel := context.WithCancel(context.Background())
							saves := 0
							ck.AfterSave = func(*resilience.Snapshot) {
								saves++
								if saves == b {
									cancel()
								}
							}
							in := base
							in.Parallelism = p
							in.SparseKernel = sparse
							in.Ctx = ctx
							in.Check = ck
							res, err := variant.run(in)
							cancel()
							if err == nil {
								// The run outlived its checkpoints: the result must
								// be complete and the snapshot file cleared.
								if !reflect.DeepEqual(res.Solutions, want.Solutions) || res.Stats != want.Stats {
									t.Fatalf("kill=%d: uninterrupted checkpointed run differs from reference", b)
								}
								if _, serr := os.Stat(path); !os.IsNotExist(serr) {
									t.Fatalf("kill=%d: completed run left its checkpoint behind", b)
								}
								completed = true
								break
							}
							if !errors.Is(err, context.Canceled) {
								t.Fatalf("kill=%d: run failed with %v, want cancellation", b, err)
							}
							snap, lerr := resilience.Load(path)
							if lerr != nil {
								t.Fatalf("kill=%d: loading snapshot: %v", b, lerr)
							}
							boundaries[snap.Boundary] = true

							re := base
							re.Parallelism = p
							re.SparseKernel = sparse
							re.Resume = snap
							re.Check = resilience.NewCheckpointer(path)
							got, rerr := variant.run(re)
							if rerr != nil {
								t.Fatalf("kill=%d: resume from %s boundary failed: %v", b, snap.Boundary, rerr)
							}
							if !reflect.DeepEqual(got.Solutions, want.Solutions) {
								t.Fatalf("kill=%d (%s boundary): resumed solutions differ:\ngot  %v\nwant %v",
									b, snap.Boundary, got.Solutions, want.Solutions)
							}
							if got.Stats != want.Stats {
								t.Fatalf("kill=%d (%s boundary): resumed stats differ:\ngot  %+v\nwant %+v",
									b, snap.Boundary, got.Stats, want.Stats)
							}
							if _, serr := os.Stat(path); !os.IsNotExist(serr) {
								t.Fatalf("kill=%d: resumed run left its checkpoint behind", b)
							}
						}
						if !completed {
							t.Fatalf("run never outlived %d checkpoint kills", maxSaves)
						}
					})
				}
			}
		}
	}
	// The sweep must have exercised every snapshot boundary kind: iteration
	// ends, completed families (parallel path), and breadth-first levels
	// (sequential path).
	for _, b := range []string{"iteration", "family", "level"} {
		if !boundaries[b] {
			t.Errorf("kill sweep never hit a %q boundary snapshot", b)
		}
	}
}

// TestResumeRejectsMismatchedFingerprint: a snapshot resumed against a
// different algorithm, parameter, or table must be refused, not silently
// produce wrong results.
func TestResumeRejectsMismatchedFingerprint(t *testing.T) {
	base := determinismInputs(t)[0]
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck := resilience.NewCheckpointer(path)
	in := base
	in.Check = ck
	ctx, cancel := context.WithCancel(context.Background())
	in.Ctx = ctx
	ck.AfterSave = func(*resilience.Snapshot) { cancel() }
	if _, err := Run(in, Basic); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: %v", err)
	}
	snap, err := resilience.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("different algorithm", func(t *testing.T) {
		re := base
		re.Resume = snap
		if _, err := Run(re, Cube); err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("resume under Cube of a Basic snapshot: err = %v, want fingerprint rejection", err)
		}
	})
	t.Run("different k", func(t *testing.T) {
		re := base
		re.K = base.K + 1
		re.Resume = snap
		if _, err := Run(re, Basic); err == nil {
			t.Fatal("resume with different k succeeded")
		}
	})
}

// TestResumeRejectsInconsistentSnapshot: a snapshot holding a verdict for
// a node outside the run's lattice (a dim out of range, unsorted dims, a
// level above the hierarchy's height, or mismatched dims and levels) is
// refused with an error naming the node.
func TestResumeRejectsInconsistentSnapshot(t *testing.T) {
	base := determinismInputs(t)[0]
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck := resilience.NewCheckpointer(path)
	in := base
	in.Check = ck
	ctx, cancel := context.WithCancel(context.Background())
	in.Ctx = ctx
	ck.AfterSave = func(s *resilience.Snapshot) {
		if s.Boundary == "iteration" {
			cancel()
		}
	}
	if _, err := Run(in, Basic); !errors.Is(err, context.Canceled) {
		t.Skipf("run completed before an iteration snapshot landed: %v", err)
	}
	snap, err := resilience.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	n := len(base.QI)
	top := base.QI[0].H.Height()
	for name, bad := range map[string]resilience.Verdict{
		"dim out of range":   {Dims: []int{n}, Levels: []int{0}},
		"unsorted dims":      {Dims: []int{1, 0}, Levels: []int{0, 0}},
		"level above height": {Dims: []int{0}, Levels: []int{top + 1}},
		"length mismatch":    {Dims: []int{0, 1}, Levels: []int{0}},
	} {
		mangled := *snap
		mangled.Verdicts = append(append([]resilience.Verdict(nil), snap.Verdicts...), bad)
		re := base
		re.Resume = &mangled
		_, err := Run(re, Basic)
		if err == nil {
			t.Errorf("%s: resume succeeded", name)
		} else if want := fmt.Sprintf("dims=%v levels=%v", bad.Dims, bad.Levels); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name the node (%s)", name, err, want)
		}
	}
}

// TestBudgetSoftPressureForcesSparse pins the first rung of the degradation
// ladder: with the accountant already over its soft budget, every frequency
// set falls back to the sparse kernel and the run still completes with
// bit-identical Solutions and Stats.
func TestBudgetSoftPressureForcesSparse(t *testing.T) {
	for di, base := range determinismInputs(t) {
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			in := base
			want, err := Run(in, v)
			if err != nil {
				t.Fatal(err)
			}
			const soft = int64(1) << 40
			a := resilience.NewAccountant(soft)
			a.Grant(soft + 1) // simulate external pressure just past the soft budget
			in = base
			in.Budget = a
			got, err := Run(in, v)
			if err != nil {
				t.Fatalf("input=%d %v: budgeted run failed: %v", di, v, err)
			}
			if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
				t.Errorf("input=%d %v: sparse-degraded run differs from reference", di, v)
			}
			if a.DenseFallbacks() == 0 {
				t.Errorf("input=%d %v: no dense fallbacks recorded under soft pressure", di, v)
			}
			if a.Exhausted() || a.Aborted() {
				t.Errorf("input=%d %v: soft pressure escalated to the hard stop", di, v)
			}
		}
	}
}

// TestBudgetShedsMaterialization pins the second rung: over the soft budget,
// strategic materialization sheds its waves (an exact, smaller partial cube)
// and the search still answers every root by scanning.
func TestBudgetShedsMaterialization(t *testing.T) {
	base := determinismInputs(t)[1]
	in := base
	refMat := MaterializeBudget(&in, 1<<20)
	if refMat.NumViews() == 0 {
		t.Fatal("setup: unpressured materialization selected no views")
	}
	want, err := RunMaterialized(in, refMat)
	if err != nil {
		t.Fatal(err)
	}

	const soft = int64(1) << 40
	a := resilience.NewAccountant(soft)
	a.Grant(soft + 1)
	in = base
	in.Budget = a
	mat := MaterializeBudget(&in, 1<<20)
	if mat.NumViews() != 0 {
		t.Errorf("pressured materialization still built %d views", mat.NumViews())
	}
	if a.Sheds() == 0 {
		t.Error("no shed events recorded")
	}
	got, err := RunMaterialized(in, mat)
	if err != nil {
		t.Fatalf("run with fully shed materialization failed: %v", err)
	}
	if !reflect.DeepEqual(got.Solutions, want.Solutions) {
		t.Error("shed materialization changed the solution set")
	}
}

// TestBudgetHardStopReturnsProvenSubset pins the last rung: past twice the
// budget the run aborts with ErrDegraded, returning a result whose solutions
// are a subset of the true solution set, with the abort recorded on the
// accountant.
func TestBudgetHardStopReturnsProvenSubset(t *testing.T) {
	for di, base := range determinismInputs(t) {
		reference := make(map[string]bool)
		in := base
		want, err := Run(in, Basic)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range want.Solutions {
			reference[fmt.Sprint(s)] = true
		}
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			a := resilience.NewAccountant(1) // every long-lived set blows the hard stop
			in := base
			in.Budget = a
			res, err := Run(in, v)
			if !errors.Is(err, resilience.ErrDegraded) {
				t.Fatalf("input=%d %v: err = %v, want ErrDegraded", di, v, err)
			}
			if res == nil {
				t.Fatalf("input=%d %v: degraded run returned no best-so-far result", di, v)
			}
			for _, s := range res.Solutions {
				if !reference[fmt.Sprint(s)] {
					t.Errorf("input=%d %v: degraded run claims non-solution %v", di, v, s)
				}
			}
			if !a.Aborted() {
				t.Errorf("input=%d %v: abort not recorded on the accountant", di, v)
			}
		}
	}
}

// TestBudgetCompleteRunBalancesAccounting: a generous budget changes
// nothing, and the Basic search (whose long-lived sets all die inside the
// run) ends with every granted byte released — the accountant would
// otherwise drift across iterations and poison long sweeps.
func TestBudgetCompleteRunBalancesAccounting(t *testing.T) {
	base := determinismInputs(t)[1]
	in := base
	want, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	a := resilience.NewAccountant(1 << 40)
	in = base
	in.Budget = a
	got, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
		t.Error("generously budgeted run differs from reference")
	}
	if used := a.Used(); used != 0 {
		t.Errorf("accounting leak: %d bytes still granted after a complete Basic run", used)
	}
	if a.DenseFallbacks() != 0 || a.Sheds() != 0 || a.Aborted() {
		t.Error("generous budget recorded degradation events")
	}
}
