package experiment

import (
	"fmt"
	"io"
	"strings"

	"proxcensus/internal/conformance"
)

// Table is the one result renderer: the paper tables and the
// degradation curve both print as aligned text, and the paper tables
// are also written as CSV.
type Table struct {
	// Title is printed above the table.
	Title string
	// Note is printed below the title (e.g. the paper claim being
	// reproduced).
	Note string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string

	// bounded lists the rows that report a sample claiming a bound.
	bounded []boundedRow
}

// boundedRow ties a row's label to the sample it reports.
type boundedRow struct {
	label  string
	sample *conformance.Outcome
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddBoundRow appends a row that reports sample. When the sample claims
// a bound (Bound > 0), Gate tests the row against it under label.
func (t *Table) AddBoundRow(label string, sample *conformance.Outcome, cells ...any) {
	t.AddRow(cells...)
	if sample.Bound > 0 {
		t.bounded = append(t.bounded, boundedRow{label: label, sample: sample})
	}
}

// Gate tests every row that carries a bound with the exact one-sided
// binomial test at significance alpha and writes one verdict line per
// row, prefixed with id. It returns how many rows it tested and the
// labels of those whose measured rate is significantly above their
// bound.
func (t *Table) Gate(w io.Writer, id string, alpha float64) (tested int, exceeded []string, err error) {
	var b strings.Builder
	for _, r := range t.bounded {
		report, err := r.sample.Check(alpha)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", r.label, err)
		}
		fmt.Fprintf(&b, "gate %s: %s: %s\n", id, r.label, report)
		if !report.Consistent {
			exceeded = append(exceeded, r.label)
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return 0, nil, err
	}
	return len(t.bounded), exceeded, nil
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no quoting — cells in
// this repository contain no commas).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
