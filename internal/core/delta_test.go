package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"incognito/internal/hierarchy"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// deltaFixture is a random instance whose hierarchies exist as unbound
// specs, so the same generalization semantics can be bound against the
// original table, the edited table, or a full-domain scratch table — the
// string-keyed state must behave identically under every binding.
type deltaFixture struct {
	names   []string
	domains []int
	specs   []*hierarchy.Spec
	k       int64
	supp    int64
}

// newDeltaFixture builds random monotone merge-chain hierarchies, like
// randomHierarchy but keeping the specs unbound.
func newDeltaFixture(rng *rand.Rand, nAttrs int, k, supp int64) *deltaFixture {
	fx := &deltaFixture{k: k, supp: supp}
	for i := 0; i < nAttrs; i++ {
		fx.names = append(fx.names, string(rune('A'+i)))
		fx.domains = append(fx.domains, 2+rng.Intn(5))
	}
	for i, attr := range fx.names {
		domain := fx.domains[i]
		height := 1 + rng.Intn(3)
		cur := make([]int, domain)
		for j := range cur {
			cur[j] = j
		}
		levels := make([]hierarchy.Level, height)
		for l := 0; l < height; l++ {
			groups := 1
			if l < height-1 {
				groups = 1 + rng.Intn(maxInt(1, domain-l))
			}
			merge := make(map[int]int)
			next := make([]int, domain)
			for j := range cur {
				g, ok := merge[cur[j]]
				if !ok {
					g = rng.Intn(groups)
					merge[cur[j]] = g
				}
				next[j] = g
			}
			cur = append([]int(nil), next...)
			snapshot := append([]int(nil), next...)
			name := attr + string(rune('1'+l))
			levels[l] = hierarchy.Level{Name: name, FromBase: func(v string) (string, error) {
				return name + "-g" + string(rune('a'+snapshot[int(v[0]-'a')])), nil
			}}
		}
		fx.specs = append(fx.specs, hierarchy.NewSpec(attr, levels...))
	}
	return fx
}

// table builds a table holding the given rows. Domains are deliberately
// NOT pre-registered: the dictionary holds exactly the values the rows
// carry, in first-appearance order, just like a table rebuilt after a
// delta — so these tests cover dictionary-code permutation.
func (fx *deltaFixture) table(t *testing.T, rows [][]int32) *relation.Table {
	t.Helper()
	tab := relation.MustNewTable(fx.names...)
	rec := make([]string, len(fx.names))
	for _, r := range rows {
		for i, c := range r {
			rec[i] = value(int(c))
		}
		if err := tab.AppendRow(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// bind attaches the fixture's specs to a table, producing a run input.
func (fx *deltaFixture) bind(t *testing.T, tab *relation.Table) Input {
	t.Helper()
	cols := make([]int, len(fx.names))
	hs := make([]*hierarchy.Hierarchy, len(fx.names))
	for i := range fx.names {
		cols[i] = i
		h, err := fx.specs[i].Bind(tab.Dict(i))
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return NewInput(tab, cols, hs, fx.k, fx.supp)
}

// deltaRows pre-generalizes rows through a full-domain binding (every
// domain value registered), the job anonymize-level callers do through
// their hierarchy builders.
func (fx *deltaFixture) deltaRows(t *testing.T, rows [][]int32) []DeltaRow {
	t.Helper()
	full := relation.MustNewTable(fx.names...)
	hs := make([]*hierarchy.Hierarchy, len(fx.names))
	for i, d := range fx.domains {
		for v := 0; v < d; v++ {
			full.Dict(i).Encode(value(v))
		}
		h, err := fx.specs[i].Bind(full.Dict(i))
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	out := make([]DeltaRow, len(rows))
	for r, row := range rows {
		gen := make([][]string, len(fx.names))
		for i, c := range row {
			base := value(int(c))
			gen[i] = make([]string, hs[i].Height()+1)
			for l := 0; l <= hs[i].Height(); l++ {
				g, err := hs[i].GeneralizeValue(l, base)
				if err != nil {
					t.Fatal(err)
				}
				gen[i][l] = g
			}
		}
		out[r] = DeltaRow{Gen: gen}
	}
	return out
}

// runState assembles the persistent state of a completed cold run.
func runState(in *Input, cap *StateCapture) *resilience.RunState {
	cols := make([]string, len(in.QI))
	for i, q := range in.QI {
		cols[i] = q.H.Attr()
	}
	return &resilience.RunState{
		Fingerprint: resilience.Fingerprint{Heights: in.Heights()},
		Cols:        cols,
		K:           in.K,
		MaxSuppress: in.MaxSuppress,
		Rows:        in.Table.NumRows(),
		Digests:     tableDigests(in),
		Records:     cap.Records(),
	}
}

// randomRows draws n random rows over the fixture's domains.
func (fx *deltaFixture) randomRows(rng *rand.Rand, n int) [][]int32 {
	rows := make([][]int32, n)
	for r := range rows {
		row := make([]int32, len(fx.domains))
		for i, d := range fx.domains {
			row[i] = int32(rng.Intn(d))
		}
		rows[r] = row
	}
	return rows
}

// splitDelta removes roughly removeFrac of rows and adds nAdd fresh ones,
// returning the edited row set plus the removed and added rows.
func (fx *deltaFixture) splitDelta(rng *rand.Rand, rows [][]int32, removeFrac float64, nAdd int) (edited, removed, added [][]int32) {
	for _, r := range rows {
		if rng.Float64() < removeFrac {
			removed = append(removed, r)
		} else {
			edited = append(edited, r)
		}
	}
	added = fx.randomRows(rng, nAdd)
	edited = append(edited, added...)
	return edited, removed, added
}

// TestDeltaBitIdenticalToCold is the tentpole's contract: a delta re-run
// produces Solutions AND Stats bit-identical to a cold recomputation of
// the edited table, across kernels × parallelism, for small (screen-heavy)
// and large (revalidation-heavy, verdict-flipping) deltas alike.
func TestDeltaBitIdenticalToCold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	parallelisms := []int{1, 2, 0}
	for trial := 0; trial < 12; trial++ {
		fx := newDeltaFixture(rng, 2+rng.Intn(2), int64(2+rng.Intn(3)), int64(rng.Intn(2)))
		baseRows := fx.randomRows(rng, 25+rng.Intn(40))
		removeFrac := 0.08
		if trial%3 == 2 {
			removeFrac = 0.5 // large deltas flip verdicts and force revalidation
		}
		editedRows, removedRows, addedRows := fx.splitDelta(rng, baseRows, removeFrac, rng.Intn(5))

		// Cold run on T captures the state.
		coldIn := fx.bind(t, fx.table(t, baseRows))
		coldIn.Capture = &StateCapture{}
		if _, err := Run(coldIn, Basic); err != nil {
			t.Fatalf("trial %d: cold run: %v", trial, err)
		}
		state := runState(&coldIn, coldIn.Capture)

		removedDelta := fx.deltaRows(t, removedRows)
		addedDelta := fx.deltaRows(t, addedRows)
		for _, p := range parallelisms {
			for _, sparse := range []bool{false, true} {
				editedTab := fx.table(t, editedRows)
				want, err := func() (*Result, error) {
					in := fx.bind(t, editedTab)
					in.Parallelism, in.SparseKernel = p, sparse
					return Run(in, Basic)
				}()
				if err != nil {
					t.Fatalf("trial %d p=%d sparse=%v: cold rerun: %v", trial, p, sparse, err)
				}
				din := fx.bind(t, editedTab)
				din.Parallelism, din.SparseKernel = p, sparse
				din.Delta = &DeltaRun{State: state, Added: addedDelta, Removed: removedDelta}
				din.Capture = &StateCapture{}
				got, err := Run(din, Basic)
				if err != nil {
					t.Fatalf("trial %d p=%d sparse=%v: delta run: %v", trial, p, sparse, err)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Fatalf("trial %d p=%d sparse=%v: delta solutions differ\ngot  %v\nwant %v",
						trial, p, sparse, got.Solutions, want.Solutions)
				}
				if got.Stats != want.Stats {
					t.Fatalf("trial %d p=%d sparse=%v: delta stats differ\ngot  %+v\nwant %+v",
						trial, p, sparse, got.Stats, want.Stats)
				}
				if got.Delta == nil {
					t.Fatalf("trial %d: delta run reported no counters", trial)
				}
				if got.Delta.NodesScreened+got.Delta.NodesRevalidated != int64(got.Stats.NodesChecked) {
					t.Fatalf("trial %d: screened %d + revalidated %d != checked %d",
						trial, got.Delta.NodesScreened, got.Delta.NodesRevalidated, got.Stats.NodesChecked)
				}
				if want.Delta != nil {
					t.Fatalf("trial %d: cold run reported delta counters", trial)
				}
			}
		}
	}
}

// TestDeltaChainedStates: the state a delta run emits (the edited table's
// digests + screen-updated + revalidated + reconciled records) supports a
// further delta, still bit-identical to cold.
func TestDeltaChainedStates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		fx := newDeltaFixture(rng, 2, int64(2+rng.Intn(2)), 0)
		rows := fx.randomRows(rng, 30+rng.Intn(30))
		coldIn := fx.bind(t, fx.table(t, rows))
		coldIn.Capture = &StateCapture{}
		if _, err := Run(coldIn, Basic); err != nil {
			t.Fatal(err)
		}
		state := runState(&coldIn, coldIn.Capture)

		for hop := 0; hop < 3; hop++ {
			edited, removed, added := fx.splitDelta(rng, rows, 0.1, rng.Intn(4))
			editedTab := fx.table(t, edited)
			din := fx.bind(t, editedTab)
			din.Delta = &DeltaRun{State: state, Added: fx.deltaRows(t, added), Removed: fx.deltaRows(t, removed)}
			din.Capture = &StateCapture{}
			got, err := Run(din, Basic)
			if err != nil {
				t.Fatalf("trial %d hop %d: %v", trial, hop, err)
			}
			coldEd := fx.bind(t, fx.table(t, edited))
			want, err := Run(coldEd, Basic)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
				t.Fatalf("trial %d hop %d: chained delta diverged from cold\ngot  %v %+v\nwant %v %+v",
					trial, hop, got.Solutions, got.Stats, want.Solutions, want.Stats)
			}
			// Next hop's state: what the delta run captured plus the
			// reconciled untouched records.
			state = &resilience.RunState{
				Fingerprint: state.Fingerprint,
				Cols:        state.Cols,
				K:           state.K,
				MaxSuppress: state.MaxSuppress,
				Rows:        editedTab.NumRows(),
				Digests:     din.Delta.Digests(),
				Records:     append(din.Capture.Records(), din.Delta.UntouchedRecords(&din)...),
			}
			rows = edited
		}
	}
}

// TestDeltaEmptyDelta: an empty delta screens every node (nothing can have
// changed) and reports no rescanned rows beyond the empty delta itself.
func TestDeltaEmptyDelta(t *testing.T) {
	fx := newDeltaFixture(rand.New(rand.NewSource(5)), 2, 2, 0)
	rows := fx.randomRows(rand.New(rand.NewSource(6)), 40)
	coldIn := fx.bind(t, fx.table(t, rows))
	coldIn.Capture = &StateCapture{}
	want, err := Run(coldIn, Basic)
	if err != nil {
		t.Fatal(err)
	}
	din := fx.bind(t, fx.table(t, rows))
	din.Delta = &DeltaRun{State: runState(&coldIn, coldIn.Capture)}
	got, err := Run(din, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
		t.Fatalf("empty delta diverged from original run")
	}
	if got.Delta.NodesRevalidated != 0 {
		t.Fatalf("empty delta revalidated %d nodes, want 0", got.Delta.NodesRevalidated)
	}
	if got.Delta.RowsRescanned != 0 {
		t.Fatalf("empty delta rescanned %d rows, want 0", got.Delta.RowsRescanned)
	}
}

// TestDeltaKillResumeBitIdentical: a delta run killed at every checkpoint
// boundary and resumed still matches the cold run on the edited table.
func TestDeltaKillResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fx := newDeltaFixture(rng, 3, 2, 0)
	rows := fx.randomRows(rng, 40)
	edited, removed, added := fx.splitDelta(rng, rows, 0.1, 3)

	coldIn := fx.bind(t, fx.table(t, rows))
	coldIn.Capture = &StateCapture{}
	if _, err := Run(coldIn, Basic); err != nil {
		t.Fatal(err)
	}
	state := runState(&coldIn, coldIn.Capture)
	removedDelta, addedDelta := fx.deltaRows(t, removed), fx.deltaRows(t, added)

	editedTab := fx.table(t, edited)
	want, err := Run(fx.bind(t, editedTab), Basic)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2} {
		dir := t.TempDir()
		completed := false
		const maxSaves = 100
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
			in := fx.bind(t, editedTab)
			in.Parallelism = p
			in.Ctx = ctx
			in.Check = ck
			in.Delta = &DeltaRun{State: state, Added: addedDelta, Removed: removedDelta}
			res, err := Run(in, Basic)
			cancel()
			if err == nil {
				if !reflect.DeepEqual(res.Solutions, want.Solutions) || res.Stats != want.Stats {
					t.Fatalf("p=%d kill=%d: uninterrupted delta run differs from cold", p, b)
				}
				completed = true
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d kill=%d: run failed with %v, want cancellation", p, b, err)
			}
			snap, lerr := resilience.Load(path)
			if lerr != nil {
				t.Fatalf("p=%d kill=%d: loading snapshot: %v", p, b, lerr)
			}
			re := fx.bind(t, editedTab)
			re.Parallelism = p
			re.Resume = snap
			re.Check = resilience.NewCheckpointer(path)
			re.Delta = &DeltaRun{State: state, Added: addedDelta, Removed: removedDelta}
			re.Capture = &StateCapture{}
			got, rerr := Run(re, Basic)
			if rerr != nil {
				t.Fatalf("p=%d kill=%d: resume from %s boundary failed: %v", p, b, snap.Boundary, rerr)
			}
			if !reflect.DeepEqual(got.Solutions, want.Solutions) {
				t.Fatalf("p=%d kill=%d (%s): resumed delta solutions differ\ngot  %v\nwant %v",
					p, b, snap.Boundary, got.Solutions, want.Solutions)
			}
			if got.Stats != want.Stats {
				t.Fatalf("p=%d kill=%d (%s): resumed delta stats differ\ngot  %+v\nwant %+v",
					p, b, snap.Boundary, got.Stats, want.Stats)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("p=%d kill=%d: resumed run left its checkpoint behind", p, b)
			}
		}
		if !completed {
			t.Fatalf("p=%d: run never outlived %d checkpoint kills", p, maxSaves)
		}
	}
}

// TestDeltaValidation: unsupported variants and configurations, and states
// that do not describe the table, are rejected up front.
func TestDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fx := newDeltaFixture(rng, 2, 2, 0)
	rows := fx.randomRows(rng, 30)
	coldIn := fx.bind(t, fx.table(t, rows))
	coldIn.Capture = &StateCapture{}
	if _, err := Run(coldIn, Basic); err != nil {
		t.Fatal(err)
	}
	state := runState(&coldIn, coldIn.Capture)

	fresh := func() Input {
		in := fx.bind(t, fx.table(t, rows))
		in.Delta = &DeltaRun{State: state}
		return in
	}
	for _, v := range []Variant{SuperRoots, Cube} {
		if _, err := Run(fresh(), v); err == nil {
			t.Fatalf("delta run under %s succeeded", v)
		}
	}
	in := fresh()
	in.Budget = resilience.NewAccountant(1 << 20)
	if _, err := Run(in, Basic); err == nil {
		t.Fatal("delta run with Budget succeeded")
	}
	in = fresh()
	in.Delta.State = nil
	if _, err := Run(in, Basic); err == nil {
		t.Fatal("delta run without state succeeded")
	}
	// A state whose row count cannot reconcile with the table is rejected.
	in = fresh()
	bad := *state
	bad.Rows = state.Rows + 1
	in.Delta.State = &bad
	if _, err := Run(in, Basic); err == nil {
		t.Fatal("delta run against a state with the wrong row count succeeded")
	}
	// Mismatched k.
	in = fresh()
	bad = *state
	bad.K = state.K + 1
	in.Delta.State = &bad
	if _, err := Run(in, Basic); err == nil {
		t.Fatal("delta run against a state with a different k succeeded")
	}
}
