package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"incognito/internal/resilience"
	"incognito/internal/telemetry"
)

// killAt runs run(in) with a checkpointer at path that cancels the run
// right after its b-th save, and returns the snapshot that save wrote.
func killAt(t *testing.T, in Input, run func(Input) (*Result, error), path string, b int64) *resilience.Snapshot {
	t.Helper()
	ck := resilience.NewCheckpointer(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck.AfterSave = func(s *resilience.Snapshot) {
		if s.Seq == b {
			cancel()
		}
	}
	in.Ctx, in.Check = ctx, ck
	if _, err := run(in); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill at save %d: run ended with %v, want cancellation", b, err)
	}
	snap, err := resilience.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestResumeDoesNoRework: a run resumed from its final iteration-boundary
// snapshot scans the base table exactly as often as the uninterrupted run
// did after that save, plus the pre-search build that Cube and
// Materialized repeat, and saves exactly as often as it did after that
// save. Answering the recorded verdicts builds and rewrites nothing.
func TestResumeDoesNoRework(t *testing.T) {
	variants := []struct {
		name string
		// run returns the result and the base-table scans spent before the
		// search started.
		run func(in Input) (*Result, int64, error)
	}{
		{"Basic", func(in Input) (*Result, int64, error) {
			res, err := Run(in, Basic)
			return res, 0, err
		}},
		{"SuperRoots", func(in Input) (*Result, int64, error) {
			res, err := Run(in, SuperRoots)
			return res, 0, err
		}},
		{"Cube", func(in Input) (*Result, int64, error) {
			cube := BuildCube(&in)
			res, err := RunWithCube(in, cube)
			return res, int64(cube.BuildStats.TableScans), err
		}},
		{"Materialized", func(in Input) (*Result, int64, error) {
			mat := MaterializeBudget(&in, 512)
			res, err := RunMaterialized(in, mat)
			return res, int64(mat.BuildStats.TableScans), err
		}},
	}
	base := determinismInputs(t)[1]
	base.Parallelism = 1
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			progress := telemetry.NewProgress()
			in := base
			in.Progress = progress
			in.Check = resilience.NewCheckpointer(path)
			var lastSave, scansAtSave int64
			in.Check.AfterSave = func(s *resilience.Snapshot) {
				if s.Boundary == "iteration" {
					lastSave, scansAtSave = s.Seq, progress.Snapshot().TableScans
				}
			}
			want, _, err := v.run(in)
			if err != nil {
				t.Fatal(err)
			}
			if lastSave == 0 {
				t.Fatal("the run saved no iteration-boundary snapshot")
			}
			after := progress.Snapshot().TableScans - scansAtSave
			savesAfter := in.Check.Saves() - lastSave

			snap := killAt(t, base, func(in Input) (*Result, error) {
				res, _, err := v.run(in)
				return res, err
			}, path, lastSave)
			re := base
			re.Resume = snap
			re.Progress = telemetry.NewProgress()
			re.Check = resilience.NewCheckpointer(path)
			got, build, err := v.run(re)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
				t.Fatalf("resumed run differs:\ngot  %v %+v\nwant %v %+v", got.Solutions, got.Stats, want.Solutions, want.Stats)
			}
			if scans := re.Progress.Snapshot().TableScans; scans != build+after {
				t.Errorf("resumed run scanned the table %d times, want %d (build) + %d (after the save)", scans, build, after)
			}
			if saves := re.Check.Saves(); saves != savesAfter {
				t.Errorf("resumed run saved %d snapshots, want the %d the uninterrupted run saved after that save", saves, savesAfter)
			}
		})
	}
}

// TestResumeAcrossParallelism: a snapshot written at parallelism 2
// resumes at 1, and one written at 1 resumes at 2, to Solutions and Stats
// bit-identical to an uninterrupted run, whatever save it was taken at.
func TestResumeAcrossParallelism(t *testing.T) {
	base := determinismInputs(t)[1]
	for _, v := range resilienceVariants {
		for _, p := range [][2]int{{2, 1}, {1, 2}} {
			wrote, resumes := p[0], p[1]
			t.Run(fmt.Sprintf("%s/written=%d/resumed=%d", v.name, wrote, resumes), func(t *testing.T) {
				ref := base
				ref.Parallelism = resumes
				want, err := v.run(ref)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				writer := base
				writer.Parallelism = wrote
				writer.Check = resilience.NewCheckpointer(filepath.Join(dir, "count.ckpt"))
				if _, err := v.run(writer); err != nil {
					t.Fatal(err)
				}
				saves := writer.Check.Saves()
				if saves == 0 {
					t.Fatal("the writer saved no snapshot")
				}
				writer.Check = nil
				for b := int64(1); b <= saves; b++ {
					snap := killAt(t, writer, v.run, filepath.Join(dir, fmt.Sprintf("kill-%d.ckpt", b)), b)
					re := base
					re.Parallelism = resumes
					re.Resume = snap
					got, err := v.run(re)
					if err != nil {
						t.Fatalf("save %d (%s): resume failed: %v", b, snap.Boundary, err)
					}
					if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
						t.Fatalf("save %d (%s): resumed run differs:\ngot  %v %+v\nwant %v %+v",
							b, snap.Boundary, got.Solutions, got.Stats, want.Solutions, want.Stats)
					}
				}
			})
		}
	}
}
