// Command benchcheck is the CI bench-regression gate: it checks a fresh
// `bench -json` report of a comparison experiment (parallel, kernel or
// incremental) against the golden report checked in under results/. Every
// experiment reports in one schema: each cell is a reference run against a
// subject run of one workload, and carries its coordinates, both wall
// times, a map of deterministic counters, informational values, and
// whether the two runs agreed. One path checks every report:
//
//   - against -golden: the report must name the golden file's experiment,
//     and every cell's coordinates, every counter the golden file records,
//     and its identical flag must match. Timings and informational values
//     are never compared, so the gate is immune to runner speed while still
//     catching any change to how much work the algorithms do.
//   - absolute rules, golden file or not: every cell must be identical, and
//     a cell that counts them must hold dense_add_allocs_per_op at 0 and
//     re-scan and revalidate at most 10% of the cold run's rows
//     (rows_rescanned / cold_rows_scanned) and nodes (nodes_revalidated /
//     nodes_checked).
//   - -min-speedup: wall-clock floors on ref_ms/subject_ms, measured inside
//     one process so they hold on any runner — either per algorithm (short
//     names, as bench -algos takes them; cells of other algorithms are not
//     gated) or one bare floor for every cell. With -min-speedup, -golden
//     becomes optional.
//
// Usage:
//
//	bench -experiment parallel -rows 800 -landsend-rows 2000 -seed 1 \
//	  -parallelism 2 -quiet -json > got.json
//	benchcheck -golden results/bench-regression-golden.json -got got.json
//
//	bench -experiment parallel -parallelism 4 -quiet -json > multicore.json
//	benchcheck -got multicore.json -min-speedup 'basic=1.5,superroots=1.5,cube=1.0'
//
//	bench -experiment incremental -rows 8000 -landsend-rows 100000 -seed 1 \
//	  -quiet -json > multicore-incremental.json
//	benchcheck -got multicore-incremental.json -min-speedup 1.0
//
// Exit status: 0 when every check passes, 1 on any drift or broken rule
// (each one is reported), 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"incognito/internal/bench"
)

func main() {
	golden := flag.String("golden", "", "path to the golden report (required unless -min-speedup is given)")
	got := flag.String("got", "", "path to the freshly generated report (required)")
	minSpeedup := flag.String("min-speedup", "", "ref_ms/subject_ms floors: per algorithm (e.g. basic=1.5,superroots=1.5,cube=1.0) or one bare floor for every cell (e.g. 1.0)")
	flag.Parse()
	if (*golden == "" && *minSpeedup == "") || *got == "" || flag.NArg() > 0 {
		usageError("-golden (unless -min-speedup is given) and -got are required, and take no positional arguments")
	}
	var floors map[string]float64
	if *minSpeedup != "" {
		var err error
		if floors, err = parseSpeedupFloors(*minSpeedup); err != nil {
			usageError(err.Error())
		}
	}
	var want *bench.Report
	experiment := ""
	if *golden != "" {
		var err error
		if want, err = load(*golden, ""); err != nil {
			fatal(err)
		}
		experiment = want.Experiment
	}
	have, err := load(*got, experiment)
	if err != nil {
		fatal(err)
	}

	diffs, gated := check(want, have, floors)
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "benchcheck: "+d)
		}
		fmt.Fprintf(os.Stderr, "benchcheck: %d difference(s) in %s\n", len(diffs), *got)
		if want != nil {
			fmt.Fprintln(os.Stderr, "benchcheck: if the change is intentional, regenerate the golden file (see results/README.md)")
		}
		os.Exit(1)
	}
	if want != nil {
		fmt.Printf("benchcheck: %d cells match the golden counters\n", len(want.Cells))
	}
	if floors != nil {
		fmt.Printf("benchcheck: %d cells pass the speedup gate\n", gated)
	}
}

// check is the one path every report takes: drift against the golden
// report want (when given), then the absolute rules, then the speedup
// floors (when given). It returns one message per failure and the number
// of cells the floors gated.
func check(want, got *bench.Report, floors map[string]float64) (diffs []string, gated int) {
	if want != nil {
		diffs = compare(want, got)
	}
	diffs = append(diffs, rules(got)...)
	if floors != nil {
		var gateDiffs []string
		gateDiffs, gated = gateSpeedups(got, floors)
		diffs = append(diffs, gateDiffs...)
	}
	return diffs, gated
}

// load reads a report, refusing one with a field the schema does not
// declare, no experiment name, no cells, or — when experiment is not empty
// — a different experiment.
func load(path, experiment string) (*bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r bench.Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case r.Experiment == "":
		return nil, fmt.Errorf("%s: report names no experiment", path)
	case experiment != "" && r.Experiment != experiment:
		return nil, fmt.Errorf("%s: report is of the %s experiment, the golden file of the %s experiment", path, r.Experiment, experiment)
	case len(r.Cells) == 0:
		return nil, fmt.Errorf("%s: report has no cells", path)
	}
	return &r, nil
}

// cellKey names cell i in messages.
func cellKey(i int, c *bench.Cell) string {
	return fmt.Sprintf("cell %d (%s)", i, c.Key())
}

// compare returns one message per pinned value that drifted from the golden
// report: a coordinate, a counter the golden file records, or the identical
// flag. Cells are matched positionally: the experiment emits them in a
// fixed order.
func compare(want, got *bench.Report) []string {
	if len(want.Cells) != len(got.Cells) {
		return []string{fmt.Sprintf("cell count: got %d, want %d", len(got.Cells), len(want.Cells))}
	}
	var diffs []string
	for i := range want.Cells {
		w, g := &want.Cells[i], &got.Cells[i]
		key := cellKey(i, w)
		have := map[string]string{}
		for _, kv := range g.Coordinates() {
			have[kv[0]] = kv[1]
		}
		for _, kv := range w.Coordinates() {
			if v := have[kv[0]]; v != kv[1] {
				diffs = append(diffs, fmt.Sprintf("%s: %s = %q, want %q", key, kv[0], v, kv[1]))
			}
			delete(have, kv[0])
		}
		for _, name := range sortedKeys(have) {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %q, want none", key, name, have[name]))
		}
		for _, name := range sortedKeys(w.Counters) {
			if v, ok := g.Counters[name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: counter %s missing, want %d", key, name, w.Counters[name]))
			} else if v != w.Counters[name] {
				diffs = append(diffs, fmt.Sprintf("%s: %s = %d, want %d", key, name, v, w.Counters[name]))
			}
		}
		if g.Identical != w.Identical {
			diffs = append(diffs, fmt.Sprintf("%s: identical = %v, want %v", key, g.Identical, w.Identical))
		}
	}
	return diffs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bounds are the absolute rules on counters, applied by name to every cell
// that records the counter, whatever the golden file says: counter must
// stay at or under max times the cell's per counter (or under max itself
// when per is empty). The dense kernel's per-tuple hot path must not
// allocate, and a ~1% delta must re-scan at most 10% of the cold run's
// rows and revalidate at most 10% of its nodes.
var bounds = []struct {
	counter, per string
	max          float64
}{
	{"dense_add_allocs_per_op", "", 0},
	{"rows_rescanned", "cold_rows_scanned", 0.10},
	{"nodes_revalidated", "nodes_checked", 0.10},
}

// rules returns one message per broken absolute rule: a cell whose subject
// run did not reproduce its reference run, or a counter past its bound.
func rules(r *bench.Report) []string {
	var diffs []string
	for i := range r.Cells {
		c := &r.Cells[i]
		key := cellKey(i, c)
		if !c.Identical {
			diffs = append(diffs, fmt.Sprintf("%s: %s run was not identical to the %s run", key, r.Subject, r.Ref))
		}
		for _, b := range bounds {
			v, ok := c.Counters[b.counter]
			if !ok {
				continue
			}
			if b.per == "" {
				if float64(v) > b.max {
					diffs = append(diffs, fmt.Sprintf("%s: %s = %d, want at most %g", key, b.counter, v, b.max))
				}
				continue
			}
			per, ok := c.Counters[b.per]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s: %s has no %s to bound it", key, b.counter, b.per))
			} else if float64(v) > b.max*float64(per) {
				diffs = append(diffs, fmt.Sprintf("%s: %s = %d is above %.2f of %s = %d",
					key, b.counter, v, b.max, b.per, per))
			}
		}
	}
	return diffs
}

// parseSpeedupFloors parses -min-speedup: either one bare floor for every
// cell ("1.0", keyed "") or per-algorithm floors ("basic=1.5,cube=1.0",
// keyed by the algorithms' display names, as report cells carry them).
func parseSpeedupFloors(spec string) (map[string]float64, error) {
	floor := func(s, name string) (float64, error) {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || f <= 0 {
			return 0, fmt.Errorf("-min-speedup floor %q for %s (want a positive number)", s, name)
		}
		return f, nil
	}
	if !strings.Contains(spec, "=") {
		f, err := floor(spec, "every cell")
		return map[string]float64{"": f}, err
	}
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
		if floors[a.String()], err = floor(val, name); err != nil {
			return nil, err
		}
	}
	return floors, nil
}

// gateSpeedups enforces the speedup floors: every cell with a floor — its
// algorithm's, or the bare floor — must run its subject at least floor
// times as fast as its reference (ref_ms/subject_ms). It returns one
// message per failing cell and the number of cells it gated.
func gateSpeedups(r *bench.Report, floors map[string]float64) (diffs []string, gated int) {
	for i := range r.Cells {
		c := &r.Cells[i]
		floor, ok := floors[c.Algo]
		if !ok {
			if floor, ok = floors[""]; !ok {
				continue
			}
		}
		gated++
		key := cellKey(i, c)
		if c.SubjectMS <= 0 {
			diffs = append(diffs, fmt.Sprintf("%s: subject_ms %.3f is not a measured time", key, c.SubjectMS))
			continue
		}
		if ratio := c.RefMS / c.SubjectMS; ratio < floor {
			diffs = append(diffs, fmt.Sprintf("%s: speedup %.2fx below the %.2fx floor (%s %.1fms, %s %.1fms)",
				key, ratio, floor, r.Ref, c.RefMS, r.Subject, c.SubjectMS))
		}
	}
	if gated == 0 {
		diffs = append(diffs, "no report cell matches any -min-speedup floor")
	}
	return diffs, gated
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "benchcheck: "+msg)
	fmt.Fprintln(os.Stderr, "run 'benchcheck -help' for usage")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck: "+err.Error())
	os.Exit(1)
}
