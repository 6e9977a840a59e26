// Package report renders experiment outputs: fixed-width ASCII tables
// for the paper's tables, and gnuplot-style .dat / CSV series for its
// figures. All emitters write through io.Writer so tests can capture
// them and cmd/reproduce can tee them to the results directory.
package report

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it must match the header count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow is AddRow that panics, for rows with statically correct arity.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string, for tests and logs.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("report: render failed: %v", err)
	}
	return b.String()
}

// Series is one labelled data series of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Validate checks the series lengths.
func (s Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("report: series %q has %d x but %d y values", s.Label, len(s.X), len(s.Y))
	}
	if len(s.X) == 0 {
		return fmt.Errorf("report: series %q is empty", s.Label)
	}
	return nil
}

// WriteDAT emits the series in gnuplot's "index" format: one block per
// series, separated by two blank lines, each block headed by a comment
// with the label.
func WriteDAT(w io.Writer, series []Series) error {
	if len(series) == 0 {
		return errors.New("report: no series to write")
	}
	for i, s := range series {
		if err := s.Validate(); err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, "\n\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# %s\n", s.Label); err != nil {
			return err
		}
		for j := range s.X {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", s.X[j], s.Y[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV emits all series on a shared X column; the series must share
// identical X grids.
func WriteCSV(w io.Writer, xLabel string, series []Series) error {
	if len(series) == 0 {
		return errors.New("report: no series to write")
	}
	for _, s := range series {
		if err := s.Validate(); err != nil {
			return err
		}
		if len(s.X) != len(series[0].X) {
			return fmt.Errorf("report: series %q not on the shared grid", s.Label)
		}
		for j := range s.X {
			if s.X[j] != series[0].X[j] {
				return fmt.Errorf("report: series %q not on the shared grid", s.Label)
			}
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, csvEscape(xLabel))
	for _, s := range series {
		cols = append(cols, csvEscape(s.Label))
	}
	if _, err := io.WriteString(w, strings.Join(cols, ",")+"\n"); err != nil {
		return err
	}
	for j := range series[0].X {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", series[0].X[j]))
		for _, s := range series {
			row = append(row, fmt.Sprintf("%g", s.Y[j]))
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
