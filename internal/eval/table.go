package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// XY is one measured point of a series.
type XY struct {
	X float64
	Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []XY
}

// Table is the regenerated data behind one figure of the paper.
type Table struct {
	Figure string // e.g. "8a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a point to the named series, creating it on first use.
func (t *Table) Add(series string, x, y float64) {
	for i := range t.Series {
		if t.Series[i].Name == series {
			t.Series[i].Points = append(t.Series[i].Points, XY{x, y})
			return
		}
	}
	t.Series = append(t.Series, Series{Name: series, Points: []XY{{x, y}}})
}

// Print renders the table in the row/column layout the paper's figures
// report: one row per x value, one column per series.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure %s: %s\n", t.Figure, t.Title)
	fmt.Fprintf(w, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(w, "%16s", s.Name)
	}
	fmt.Fprintf(w, "   (%s)\n", t.YLabel)
	for _, x := range t.xs() {
		fmt.Fprintf(w, "%-14.4g", x)
		for _, s := range t.Series {
			y, ok := s.lookup(x)
			if ok {
				fmt.Fprintf(w, "%16.4f", y)
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV: one row per x value, one column per
// series, ready for external plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, x := range t.xs() {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range t.Series {
			if y, ok := s.lookup(x); ok {
				row = append(row, strconv.FormatFloat(y, 'g', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// xs returns every x value of the table's series, ascending, once each.
func (t *Table) xs() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func (s Series) lookup(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
