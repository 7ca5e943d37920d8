package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"incognito/internal/dataset"
)

// Sweep is a formatted experiment: a grid of measurements with labeled rows
// (the swept parameter) and columns (usually algorithms).
type Sweep struct {
	Title    string
	RowLabel string
	RowNames []string
	ColNames []string
	Cells    [][]*Measurement // Cells[row][col]; nil when skipped
}

// Progress receives a line per completed cell; a nil Progress disables
// reporting (Log on a nil Progress is a no-op).
type Progress func(format string, args ...interface{})

// Log reports one progress line; it is safe to call on a nil Progress.
func (p Progress) Log(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// Fig10 sweeps quasi-identifier size for a fixed k over the given
// algorithms — one panel of Fig. 10. ctx cancels the sweep between and
// inside cells; obs (optional, zero value disables) instruments every cell.
func Fig10(ctx context.Context, obs Obs, d *dataset.Dataset, k int64, qiMin, qiMax int, algos []Algo, progress Progress) (*Sweep, error) {
	s := &Sweep{
		Title:    fmt.Sprintf("Figure 10: %s database (k=%d), %d rows", d.Name, k, d.Table.NumRows()),
		RowLabel: "QID size",
	}
	for _, a := range algos {
		s.ColNames = append(s.ColNames, a.String())
	}
	for qi := qiMin; qi <= qiMax; qi++ {
		row := make([]*Measurement, len(algos))
		for i, a := range algos {
			m, err := Run(ctx, obs, d, qi, k, a, Sequential)
			if err != nil {
				return nil, err
			}
			progress.Log("%s | QID=%d k=%d | %-22s | %v", d.Name, qi, k, a, m.Elapsed.Round(time.Millisecond))
			row[i] = &m
		}
		s.RowNames = append(s.RowNames, fmt.Sprintf("%d", qi))
		s.Cells = append(s.Cells, row)
	}
	return s, nil
}

// Fig11 sweeps k at a fixed quasi-identifier size — one panel of Fig. 11.
// qiOverride maps an algorithm to a different QI size, reproducing the
// staggered Lands End panel (Binary Search at QID 6, Incognito at QID 8).
func Fig11(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, ks []int64, algos []Algo, qiOverride map[Algo]int, progress Progress) (*Sweep, error) {
	s := &Sweep{
		Title:    fmt.Sprintf("Figure 11: %s database (QID size %d), %d rows", d.Name, qiSize, d.Table.NumRows()),
		RowLabel: "k",
	}
	for _, a := range algos {
		qi := qiSize
		if o, ok := qiOverride[a]; ok {
			qi = o
		}
		s.ColNames = append(s.ColNames, fmt.Sprintf("%s (QID=%d)", a, qi))
	}
	for _, k := range ks {
		row := make([]*Measurement, len(algos))
		for i, a := range algos {
			qi := qiSize
			if o, ok := qiOverride[a]; ok {
				qi = o
			}
			m, err := Run(ctx, obs, d, qi, k, a, Sequential)
			if err != nil {
				return nil, err
			}
			progress.Log("%s | QID=%d k=%d | %-22s | %v", d.Name, qi, k, a, m.Elapsed.Round(time.Millisecond))
			row[i] = &m
		}
		s.RowNames = append(s.RowNames, fmt.Sprintf("%d", k))
		s.Cells = append(s.Cells, row)
	}
	return s, nil
}

// NodesTable reproduces the §4.2.1 table: generalization nodes whose
// k-anonymity was explicitly checked, bottom-up versus Incognito, by
// quasi-identifier size.
func NodesTable(ctx context.Context, obs Obs, d *dataset.Dataset, k int64, qiMin, qiMax int, progress Progress) (*Sweep, error) {
	s := &Sweep{
		Title:    fmt.Sprintf("§4.2.1 table: nodes searched, %s database (k=%d), %d rows", d.Name, k, d.Table.NumRows()),
		RowLabel: "QID size",
		ColNames: []string{"Bottom-Up", "Incognito"},
	}
	for qi := qiMin; qi <= qiMax; qi++ {
		bu, err := Run(ctx, obs, d, qi, k, BottomUpRollup, Sequential)
		if err != nil {
			return nil, err
		}
		inc, err := Run(ctx, obs, d, qi, k, BasicIncognito, Sequential)
		if err != nil {
			return nil, err
		}
		progress.Log("%s | QID=%d | bottom-up %d nodes, incognito %d nodes", d.Name, qi, bu.Stats.NodesChecked, inc.Stats.NodesChecked)
		s.RowNames = append(s.RowNames, fmt.Sprintf("%d", qi))
		s.Cells = append(s.Cells, []*Measurement{&bu, &inc})
	}
	return s, nil
}

// Fig12 reproduces the Cube Incognito cost breakdown: zero-generalization
// cube build time versus anonymization time, by quasi-identifier size.
func Fig12(ctx context.Context, obs Obs, d *dataset.Dataset, k int64, qiMin, qiMax int, progress Progress) (*Sweep, error) {
	s := &Sweep{
		Title:    fmt.Sprintf("Figure 12: Cube Incognito cost breakdown, %s database (k=%d), %d rows", d.Name, k, d.Table.NumRows()),
		RowLabel: "QID size",
		ColNames: []string{"Cube Build Time", "Anonymization Time", "Total"},
	}
	for qi := qiMin; qi <= qiMax; qi++ {
		m, err := Run(ctx, obs, d, qi, k, CubeIncognito, Sequential)
		if err != nil {
			return nil, err
		}
		progress.Log("%s | QID=%d | build %v, anonymize %v", d.Name, qi,
			m.BuildTime.Round(time.Millisecond), m.AnonTime.Round(time.Millisecond))
		s.RowNames = append(s.RowNames, fmt.Sprintf("%d", qi))
		s.Cells = append(s.Cells, []*Measurement{&m, &m, &m})
	}
	return s, nil
}

// WriteElapsed renders a sweep with elapsed milliseconds per cell.
func (s *Sweep) WriteElapsed(w io.Writer) error {
	return s.write(w, func(col int, m *Measurement) string {
		switch {
		case strings.HasPrefix(s.ColNames[col], "Cube Build"):
			return fmtMillis(m.BuildTime)
		case strings.HasPrefix(s.ColNames[col], "Anonymization"):
			return fmtMillis(m.AnonTime)
		default:
			return fmtMillis(m.Elapsed)
		}
	})
}

// WriteNodes renders a sweep with the nodes-checked counter per cell.
func (s *Sweep) WriteNodes(w io.Writer) error {
	return s.write(w, func(_ int, m *Measurement) string {
		return fmt.Sprintf("%d", m.Stats.NodesChecked)
	})
}

// WriteCSV renders the sweep as CSV with the same cell metric selection as
// WriteElapsed but in raw milliseconds.
func (s *Sweep) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,%s\n", s.RowLabel, strings.Join(s.ColNames, ",")); err != nil {
		return err
	}
	for r, name := range s.RowNames {
		cells := make([]string, len(s.Cells[r]))
		for c, m := range s.Cells[r] {
			switch {
			case m == nil:
				cells[c] = ""
			case strings.HasPrefix(s.ColNames[c], "Cube Build"):
				cells[c] = fmt.Sprintf("%.3f", float64(m.BuildTime.Microseconds())/1000)
			case strings.HasPrefix(s.ColNames[c], "Anonymization"):
				cells[c] = fmt.Sprintf("%.3f", float64(m.AnonTime.Microseconds())/1000)
			default:
				cells[c] = fmt.Sprintf("%.3f", float64(m.Elapsed.Microseconds())/1000)
			}
		}
		if _, err := fmt.Fprintf(w, "%s,%s\n", name, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

func (s *Sweep) write(w io.Writer, cell func(col int, m *Measurement) string) error {
	if _, err := fmt.Fprintln(w, s.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\n", s.RowLabel, strings.Join(s.ColNames, "\t"))
	for r, name := range s.RowNames {
		cells := make([]string, len(s.Cells[r]))
		for c, m := range s.Cells[r] {
			if m == nil {
				cells[c] = "-"
				continue
			}
			cells[c] = cell(c, m)
		}
		fmt.Fprintf(tw, "%s\t%s\n", name, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

func fmtMillis(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
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
