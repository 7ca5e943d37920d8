// Command benchcheck is the CI bench-regression gate: it compares a fresh
// `bench -json` report against the golden report checked in under
// results/, field by field — but only the fields that are deterministic
// for a fixed (dataset, rows, seed, QI size, k, algorithm): solution
// counts, minimal height, and the work counters (nodes checked, nodes
// marked, candidates, table scans, rollups). Timings are never compared,
// so the gate is immune to runner speed while still catching any change to
// how much work the algorithms do.
//
// Three report kinds are understood, selected with -kind:
//
//   - parallel (default): the intra-run parallelism experiment; every cell's
//     counters and the serial/parallel identical flag are pinned.
//   - kernel: the sparse-vs-dense frequency-set kernel experiment; every
//     cell's counters and identical flag are pinned, and so are the
//     microbenchmark rows' layouts, group counts, dense eligibility, and the
//     dense hot path's zero-allocation guarantee.
//   - incremental: the delta-driven re-anonymization experiment; every
//     cell's counters and the delta-vs-cold identical flag are pinned, and
//     two absolute gates hold regardless of the golden file: the delta run
//     must re-scan at most 10% of the cold run's rows and revalidate at
//     most 10% of its nodes.
//
// -min-speedup additionally gates wall-clock ratios measured inside one
// process, so it holds on any runner:
//
//   - for -kind parallel, a comma-separated list of per-algorithm floors
//     (short names, as -algos takes them) on the serial/parallel speedup;
//   - for -kind incremental, one floor on cold_ms/delta_ms that every cell
//     must meet — counters alone once let delta runs ship slower than the
//     cold runs they replace.
//
// A gated cell must be identical AND meet its floor. With -min-speedup,
// -golden becomes optional, because the gate checks timing ratios, not
// machine-specific counters.
//
// Usage:
//
//	bench -experiment parallel -rows 800 -landsend-rows 2000 -seed 1 \
//	  -parallelism 2 -quiet -json > got.json
//	benchcheck -golden results/bench-regression-golden.json -got got.json
//
//	bench -experiment kernel -rows 800 -landsend-rows 2000 -seed 1 \
//	  -quiet -json > kernel-got.json
//	benchcheck -kind kernel -golden results/kernel-regression-golden.json \
//	  -got kernel-got.json
//
//	bench -experiment incremental -rows 800 -landsend-rows 2000 -seed 1 \
//	  -quiet -json > incremental-got.json
//	benchcheck -kind incremental -golden results/incremental-regression-golden.json \
//	  -got incremental-got.json
//
//	bench -experiment parallel -parallelism 4 -quiet -json > multicore.json
//	benchcheck -got multicore.json -min-speedup 'basic=1.5,superroots=1.5,cube=1.0'
//
//	bench -experiment incremental -rows 8000 -landsend-rows 100000 -seed 1 \
//	  -quiet -json > multicore-incremental.json
//	benchcheck -kind incremental -got multicore-incremental.json -min-speedup 1.0
//
// Exit status: 0 when every cell matches, 1 on any drift (each difference
// is reported), 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"incognito/internal/bench"
)

// validKinds lists every report kind benchcheck understands, in the order
// they are documented. The -kind flag help and the unknown-kind error both
// render from it, so adding a kind cannot leave either message stale.
var validKinds = []string{"parallel", "kernel", "incremental"}

// kindList renders the valid kinds for usage and error text: "parallel,
// kernel, or incremental".
func kindList() string {
	n := len(validKinds)
	return strings.Join(validKinds[:n-1], ", ") + ", or " + validKinds[n-1]
}

func main() {
	golden := flag.String("golden", "", "path to the golden report (required unless -min-speedup is given)")
	got := flag.String("got", "", "path to the freshly generated report (required)")
	kind := flag.String("kind", validKinds[0], "report kind: "+kindList())
	minSpeedup := flag.String("min-speedup", "", "speedup floors: per algorithm for -kind parallel (e.g. basic=1.5,superroots=1.5,cube=1.0), one cold_ms/delta_ms floor for every cell of -kind incremental (e.g. 1.0); gated cells must be identical and meet their floor")
	flag.Parse()
	speedupKind := *kind == "parallel" || *kind == "incremental"
	goldenOptional := speedupKind && *minSpeedup != ""
	if *minSpeedup != "" && !speedupKind {
		fmt.Fprintln(os.Stderr, "benchcheck: -min-speedup applies to -kind parallel and incremental only")
		fmt.Fprintln(os.Stderr, "run 'benchcheck -help' for usage")
		os.Exit(2)
	}
	if (*golden == "" && !goldenOptional) || *got == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: -golden (unless -min-speedup is given) and -got are required, and take no positional arguments")
		fmt.Fprintln(os.Stderr, "run 'benchcheck -help' for usage")
		os.Exit(2)
	}
	var diffs []string
	var cells int
	switch *kind {
	case "parallel":
		have, err := loadParallel(*got)
		if err != nil {
			fatal(err)
		}
		cells = len(have.Cells)
		if *golden != "" {
			want, err := loadParallel(*golden)
			if err != nil {
				fatal(err)
			}
			diffs, cells = compare(want, have), len(want.Cells)
		}
		if *minSpeedup != "" {
			floors, err := parseSpeedupFloors(*minSpeedup)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchcheck: "+err.Error())
				os.Exit(2)
			}
			diffs = append(diffs, gateSpeedups(have, floors)...)
		}
	case "kernel":
		want, err := loadKernel(*golden)
		if err != nil {
			fatal(err)
		}
		have, err := loadKernel(*got)
		if err != nil {
			fatal(err)
		}
		diffs, cells = compareKernel(want, have), len(want.Cells)+len(want.Micro)
	case "incremental":
		have, err := loadIncremental(*got)
		if err != nil {
			fatal(err)
		}
		cells = len(have.Cells)
		if *golden != "" {
			want, err := loadIncremental(*golden)
			if err != nil {
				fatal(err)
			}
			diffs, cells = compareIncremental(want, have), len(want.Cells)
		}
		if *minSpeedup != "" {
			floor, err := parseFloor(*minSpeedup)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchcheck: "+err.Error())
				os.Exit(2)
			}
			diffs = append(diffs, gateIncrementalSpeedups(have, floor)...)
		}
	default:
		fmt.Fprintf(os.Stderr, "benchcheck: unknown -kind %q (want %s)\n", *kind, kindList())
		os.Exit(2)
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "benchcheck: "+d)
		}
		gate := *golden
		if gate == "" {
			gate = "the speedup gate"
		}
		fmt.Fprintf(os.Stderr, "benchcheck: %d difference(s) against %s\n", len(diffs), gate)
		if *golden != "" {
			fmt.Fprintln(os.Stderr, "benchcheck: if the change is intentional, regenerate the golden file (see results/README.md)")
		}
		os.Exit(1)
	}
	if *golden == "" {
		fmt.Printf("benchcheck: %d cells pass the speedup gate\n", cells)
		return
	}
	fmt.Printf("benchcheck: %d cells match the golden counters\n", cells)
}

func loadParallel(path string) (*bench.ParallelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.ParallelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: report has no cells", path)
	}
	return &r, nil
}

// parseSpeedupFloors parses "basic=1.5,superroots=1.5,cube=1.0" into a map
// keyed by the algorithms' display names (the Algo strings the report
// cells carry).
func parseSpeedupFloors(spec string) (map[string]float64, error) {
	floors := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-min-speedup entry %q (want algo=floor)", part)
		}
		a, err := bench.ParseAlgo(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		floor, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || floor <= 0 {
			return nil, fmt.Errorf("-min-speedup floor %q for %s (want a positive number)", val, name)
		}
		floors[a.String()] = floor
	}
	if len(floors) == 0 {
		return nil, fmt.Errorf("-min-speedup spec %q names no algorithms", spec)
	}
	return floors, nil
}

// gateSpeedups enforces the per-algorithm speedup floors on a parallel
// report: every cell whose algorithm has a floor must have reproduced the
// serial results exactly AND meet the floor. Cells of algorithms without a
// floor are ignored.
func gateSpeedups(r *bench.ParallelReport, floors map[string]float64) []string {
	var diffs []string
	gated := 0
	for i, c := range r.Cells {
		floor, ok := floors[c.Algo]
		if !ok {
			continue
		}
		gated++
		key := fmt.Sprintf("cell %d (%s rows=%d qi=%d k=%d %s)", i, c.Dataset, c.Rows, c.QISize, c.K, c.Algo)
		if !c.Identical {
			diffs = append(diffs, key+": parallel run was not identical to the serial run")
		}
		if c.Speedup < floor {
			diffs = append(diffs, fmt.Sprintf("%s: speedup %.2fx below the %.2fx floor (serial %.1fms, parallel %.1fms, workers %d)",
				key, c.Speedup, floor, c.SerialMS, c.ParallelMS, c.Workers))
		}
	}
	if gated == 0 {
		diffs = append(diffs, "no report cell matches any -min-speedup algorithm")
	}
	return diffs
}

// parseFloor parses the single -min-speedup floor of -kind incremental.
func parseFloor(spec string) (float64, error) {
	floor, err := strconv.ParseFloat(strings.TrimSpace(spec), 64)
	if err != nil || floor <= 0 {
		return 0, fmt.Errorf("-min-speedup %q for -kind incremental (want one positive number, e.g. 1.0)", spec)
	}
	return floor, nil
}

// gateIncrementalSpeedups enforces the wall-clock floor on an incremental
// report: every cell's delta run must have reproduced the cold run exactly
// AND run at least floor times as fast (cold_ms/delta_ms).
func gateIncrementalSpeedups(r *bench.IncrementalReport, floor float64) []string {
	var diffs []string
	for i, c := range r.Cells {
		key := fmt.Sprintf("incremental cell %d (%s rows=%d qi=%d k=%d %s p=%d)", i, c.Dataset, c.Rows, c.QISize, c.K, c.Kernel, c.Parallelism)
		if !c.Identical {
			diffs = append(diffs, key+": delta run was not identical to the cold run")
		}
		if c.DeltaMS <= 0 {
			diffs = append(diffs, fmt.Sprintf("%s: delta_ms %.3f is not a measured time", key, c.DeltaMS))
			continue
		}
		if ratio := c.ColdMS / c.DeltaMS; ratio < floor {
			diffs = append(diffs, fmt.Sprintf("%s: cold_ms/delta_ms %.2fx below the %.2fx floor (cold %.1fms, delta %.1fms)",
				key, ratio, floor, c.ColdMS, c.DeltaMS))
		}
	}
	return diffs
}

func loadKernel(path string) (*bench.KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.KernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: report has no cells", path)
	}
	return &r, nil
}

// fieldDiffs appends one message per mismatched (name, want, have) triple.
func fieldDiffs(diffs []string, key string, fields []struct {
	name       string
	want, have any
}) []string {
	for _, f := range fields {
		if f.want != f.have {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %v, want %v", key, f.name, f.have, f.want))
		}
	}
	return diffs
}

// compare returns one message per drifted deterministic field. Cells are
// matched positionally: the experiment emits them in a fixed order.
func compare(want, got *bench.ParallelReport) []string {
	if len(want.Cells) != len(got.Cells) {
		return []string{fmt.Sprintf("cell count: got %d, want %d", len(got.Cells), len(want.Cells))}
	}
	var diffs []string
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		key := fmt.Sprintf("cell %d (%s rows=%d qi=%d k=%d %s)", i, w.Dataset, w.Rows, w.QISize, w.K, w.Algo)
		diffs = fieldDiffs(diffs, key, []struct {
			name       string
			want, have any
		}{
			{"dataset", w.Dataset, g.Dataset},
			{"rows", w.Rows, g.Rows},
			{"qi_size", w.QISize, g.QISize},
			{"k", w.K, g.K},
			{"algo", w.Algo, g.Algo},
			{"solutions", w.Solutions, g.Solutions},
			{"min_height", w.MinHeight, g.MinHeight},
			{"nodes_checked", w.NodesChecked, g.NodesChecked},
			{"nodes_marked", w.NodesMarked, g.NodesMarked},
			{"candidates", w.Candidates, g.Candidates},
			{"table_scans", w.TableScans, g.TableScans},
			{"rollups", w.Rollups, g.Rollups},
			{"identical", w.Identical, g.Identical},
		})
	}
	return diffs
}

// compareKernel is compare for the kernel experiment: end-to-end cells are
// pinned on the same counters, microbenchmark rows on their layout, group
// count, dense eligibility, cross-kernel agreement, and the zero-allocation
// dense hot path. Timings and speedups are never compared.
func compareKernel(want, got *bench.KernelReport) []string {
	var diffs []string
	if len(want.Cells) != len(got.Cells) {
		diffs = append(diffs, fmt.Sprintf("cell count: got %d, want %d", len(got.Cells), len(want.Cells)))
	} else {
		for i := range want.Cells {
			w, g := want.Cells[i], got.Cells[i]
			key := fmt.Sprintf("kernel cell %d (%s rows=%d qi=%d k=%d %s)", i, w.Dataset, w.Rows, w.QISize, w.K, w.Algo)
			diffs = fieldDiffs(diffs, key, []struct {
				name       string
				want, have any
			}{
				{"dataset", w.Dataset, g.Dataset},
				{"rows", w.Rows, g.Rows},
				{"qi_size", w.QISize, g.QISize},
				{"k", w.K, g.K},
				{"algo", w.Algo, g.Algo},
				{"solutions", w.Solutions, g.Solutions},
				{"min_height", w.MinHeight, g.MinHeight},
				{"nodes_checked", w.NodesChecked, g.NodesChecked},
				{"nodes_marked", w.NodesMarked, g.NodesMarked},
				{"candidates", w.Candidates, g.Candidates},
				{"table_scans", w.TableScans, g.TableScans},
				{"rollups", w.Rollups, g.Rollups},
				{"identical", w.Identical, g.Identical},
			})
		}
	}
	if len(want.Micro) != len(got.Micro) {
		diffs = append(diffs, fmt.Sprintf("micro row count: got %d, want %d", len(got.Micro), len(want.Micro)))
		return diffs
	}
	for i := range want.Micro {
		w, g := want.Micro[i], got.Micro[i]
		key := fmt.Sprintf("kernel micro %d (%s rows=%d qi=%d %s)", i, w.Dataset, w.Rows, w.QISize, w.Op)
		diffs = fieldDiffs(diffs, key, []struct {
			name       string
			want, have any
		}{
			{"op", w.Op, g.Op},
			{"dataset", w.Dataset, g.Dataset},
			{"rows", w.Rows, g.Rows},
			{"qi_size", w.QISize, g.QISize},
			{"levels", fmt.Sprint(w.Levels), fmt.Sprint(g.Levels)},
			{"target_levels", fmt.Sprint(w.TargetLevels), fmt.Sprint(g.TargetLevels)},
			{"cells", w.Cells, g.Cells},
			{"dense_eligible", w.DenseEligible, g.DenseEligible},
			{"groups", w.Groups, g.Groups},
			{"identical", w.Identical, g.Identical},
			{"dense_add_allocs_per_op", w.DenseAddAllocsPerOp, g.DenseAddAllocsPerOp},
		})
		// The allocation pin is absolute, not just drift-free: the dense
		// per-tuple hot path must never allocate.
		if g.DenseAddAllocsPerOp != 0 {
			diffs = append(diffs, fmt.Sprintf("%s: dense_add_allocs_per_op = %v, want 0", key, g.DenseAddAllocsPerOp))
		}
	}
	return diffs
}

func loadIncremental(path string) (*bench.IncrementalReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.IncrementalReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: report has no cells", path)
	}
	return &r, nil
}

// maxRescanRatio / maxRevalidationRatio are the absolute savings gates of
// -kind incremental: a ~1% delta must re-scan at most this fraction of the
// cold run's rows and revalidate at most this fraction of its nodes, no
// matter what the golden file says.
const (
	maxRescanRatio       = 0.10
	maxRevalidationRatio = 0.10
)

// compareIncremental is compare for the delta-driven re-anonymization
// experiment: every deterministic counter is pinned against the golden
// file, and two gates are absolute — the delta run must have reproduced
// the cold run exactly (identical) and its savings ratios must stay under
// the 10% bounds. Timings and speedups are never compared.
func compareIncremental(want, got *bench.IncrementalReport) []string {
	var diffs []string
	if len(want.Cells) != len(got.Cells) {
		return []string{fmt.Sprintf("cell count: got %d, want %d", len(got.Cells), len(want.Cells))}
	}
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		key := fmt.Sprintf("incremental cell %d (%s rows=%d qi=%d k=%d %s p=%d)", i, w.Dataset, w.Rows, w.QISize, w.K, w.Kernel, w.Parallelism)
		diffs = fieldDiffs(diffs, key, []struct {
			name       string
			want, have any
		}{
			{"dataset", w.Dataset, g.Dataset},
			{"rows", w.Rows, g.Rows},
			{"qi_size", w.QISize, g.QISize},
			{"k", w.K, g.K},
			{"kernel", w.Kernel, g.Kernel},
			{"parallelism", w.Parallelism, g.Parallelism},
			{"added_rows", w.AddedRows, g.AddedRows},
			{"removed_rows", w.RemovedRows, g.RemovedRows},
			{"solutions", w.Solutions, g.Solutions},
			{"min_height", w.MinHeight, g.MinHeight},
			{"nodes_checked", w.NodesChecked, g.NodesChecked},
			{"nodes_marked", w.NodesMarked, g.NodesMarked},
			{"candidates", w.Candidates, g.Candidates},
			{"table_scans", w.TableScans, g.TableScans},
			{"rollups", w.Rollups, g.Rollups},
			{"cold_rows_scanned", w.ColdRowsScanned, g.ColdRowsScanned},
			{"rows_rescanned", w.RowsRescanned, g.RowsRescanned},
			{"nodes_screened", w.NodesScreened, g.NodesScreened},
			{"nodes_revalidated", w.NodesRevalidated, g.NodesRevalidated},
			{"identical", w.Identical, g.Identical},
		})
		if !g.Identical {
			diffs = append(diffs, key+": delta run was not identical to the cold run")
		}
		if g.RowRescanRatio > maxRescanRatio {
			diffs = append(diffs, fmt.Sprintf("%s: row_rescan_ratio %.4f above the %.2f bound (%d of %d rows)",
				key, g.RowRescanRatio, maxRescanRatio, g.RowsRescanned, g.ColdRowsScanned))
		}
		if g.NodeRevalidationRatio > maxRevalidationRatio {
			diffs = append(diffs, fmt.Sprintf("%s: node_revalidation_ratio %.4f above the %.2f bound (%d of %d nodes)",
				key, g.NodeRevalidationRatio, maxRevalidationRatio, g.NodesRevalidated, g.NodesChecked))
		}
	}
	return diffs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck: "+err.Error())
	os.Exit(1)
}
