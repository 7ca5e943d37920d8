package bench

// This file is the paper's evaluation (§4): the Fig. 9 dataset description,
// and the paper experiment, in which every cell times Basic Incognito (the
// reference) against one other algorithm (the subject) on one (dataset, QI
// size, k) at parallelism 1. Fig. 10 and Fig. 11 read the two wall times,
// Fig. 12 reads a Cube cell's build/anonymization split, and the §4.2.1
// table reads a bottom-up cell's nodes_checked next to Basic's.

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"incognito/internal/dataset"
)

// PaperWorkloads lists the paper experiment's grid on one dataset, one
// workload per subject algorithm (nil: every algorithm but Basic): Fig. 10
// is every QI size from minQI to maxQI at k 2 and 10, and Fig. 11 adds k 5,
// 25 and 50 at QI 8, or at maxQI when that is smaller. On Lands End, Binary
// Search's Fig. 11 cells run at QI 6, the way the paper staggers that panel.
func PaperWorkloads(d *dataset.Dataset, minQI, maxQI int, subjects []Algo) []Workload {
	if subjects == nil {
		subjects = slices.DeleteFunc(slices.Clone(AllAlgos), func(a Algo) bool { return a == BasicIncognito })
	}
	var ws []Workload
	for qi := minQI; qi <= maxQI; qi++ {
		for _, k := range []int64{2, 10} {
			for _, a := range subjects {
				ws = append(ws, Workload{d, qi, k, a})
			}
		}
	}
	for _, k := range []int64{5, 25, 50} {
		for _, a := range subjects {
			qi := min(8, maxQI)
			if a == BinarySearch && d.Name == "Lands End" {
				qi = min(6, qi)
			}
			ws = append(ws, Workload{d, qi, k, a})
		}
	}
	return ws
}

// paper runs Basic Incognito against the workload's algorithm. The cell's
// counters are the subject's, plus Basic's under a basic_ prefix, and it is
// identical when the subject found exactly Basic's solutions — for Binary
// Search, which returns one solution, when that solution is one of Basic's
// minimal ones.
func (c *comparison) paper(w Workload) error {
	var basic Measurement
	cell := Cell{Dataset: w.Data.Name, Rows: w.Data.Table.NumRows(), QISize: w.QISize, K: w.K, Algo: w.Algo.String()}
	return c.measure(cell, func() (side, error) {
		var err error
		basic, err = Run(c.ctx, c.obs, w.Data, w.QISize, w.K, BasicIncognito, 1)
		s := runSide(basic)
		counters := make(map[string]int64, len(s.counters))
		for name, v := range s.counters {
			counters["basic_"+name] = v
		}
		s.counters, s.result = counters, basic.Solutions
		if w.Algo == BinarySearch {
			s.result = true
		}
		return s, err
	}, func() (side, error) {
		m, err := Run(c.ctx, c.obs, w.Data, w.QISize, w.K, w.Algo, 1)
		s := runSide(m)
		s.result = m.Solutions
		switch w.Algo {
		case BinarySearch:
			s.result = isMinimal(basic, m)
		case CubeIncognito:
			s.info = map[string]float64{"build_ms": ms(m.BuildTime), "anon_ms": ms(m.AnonTime)}
		}
		return s, err
	})
}

// isMinimal reports whether a Binary Search run m found one of Basic's
// minimal solutions, or found none where Basic found none.
func isMinimal(basic, m Measurement) bool {
	if len(m.Solutions) == 0 {
		return len(basic.Solutions) == 0
	}
	return len(m.Solutions) == 1 && m.MinHeight == basic.MinHeight &&
		slices.ContainsFunc(basic.Solutions, func(s []int) bool { return slices.Equal(s, m.Solutions[0]) })
}

// Describe renders the Fig. 9 dataset description.
func Describe(d *dataset.Dataset, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s database (%d rows)\n", d.Name, d.Table.NumRows()); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tAttribute\tDistinct Values\tGeneralizations")
	for i, info := range d.Info {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s(%d)\n", i+1, info.Name, info.DistinctValues, info.Generalization, info.Height)
	}
	return tw.Flush()
}
