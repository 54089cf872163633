// Package report renders experiment results as aligned text tables, CSV,
// and simple ASCII series plots — the forms in which this repository
// regenerates the paper's tables and figures.
package report

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of cells; the first row is the header.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed under the table (provenance, paper expectations).
	Notes []string
	// Failures counts the cells rendered via FailCell — points whose
	// simulation failed and degraded to an annotation instead of aborting
	// the table. A nonzero count makes the CLI exit nonzero.
	Failures int
	// FailKinds tallies FailCell calls by the kind label used in the cell
	// ("timeout", "workercrash", ...), so the CLI can print an end-of-run
	// failure summary without re-parsing cells. Nil until the first failure.
	FailKinds map[string]int
}

// New returns an empty table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; cells beyond len(Columns) are dropped, missing cells
// are blank.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddF appends a row of formatted values: strings pass through, float64s
// are rendered with Fmt, ints in decimal.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, Fmt(v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Add(row...)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FailureKinder is implemented by structured failures (vmpi.RunError,
// sweep.PanicError) that can label their degraded cell with a short kind.
type FailureKinder interface {
	FailureKind() string
}

// FailureKind labels a failed point: the kind of the first FailureKinder
// in err's chain, else "canceled" or "timeout" for a context error, else
// "error".
func FailureKind(err error) string {
	var fk FailureKinder
	switch {
	case errors.As(err, &fk):
		return fk.FailureKind()
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "error"
}

// FailCell records a failed point and returns its degraded cell: "!kind"
// (e.g. "!node-down", "!deadlock"), which Plot already skips as
// non-numeric. The failure is counted in t.Failures and its first line is
// preserved as a footnote, so the table completes with every healthy cell
// intact and the failure still diagnosable.
func (t *Table) FailCell(err error) string {
	kind := FailureKind(err)
	t.Failures++
	if t.FailKinds == nil {
		t.FailKinds = make(map[string]int)
	}
	t.FailKinds[kind]++
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if len(msg) > 160 {
		msg = msg[:157] + "..."
	}
	t.Note("FAILED (%s): %s", kind, msg)
	return "!" + kind
}

// EnsembleCell renders a replica distribution as one distribution-aware
// cell: "min/avg/max ±spread%", where spread is the relative range
// (max-min)/avg — the noise-study convention (ARCHER/Cirrus, RZBENCH) for
// reporting run-to-run variation. A single value renders as Fmt does, so
// one-replica ensembles are indistinguishable from plain cells. The cell
// never contains a comma, keeping Table.CSV lossless.
func EnsembleCell(vals []float64) string {
	if len(vals) == 0 {
		return "-"
	}
	if len(vals) == 1 {
		return Fmt(vals[0])
	}
	min, max, sum := vals[0], vals[0], 0.0
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	avg := sum / float64(len(vals))
	spread := 0.0
	//detlint:allow floatcmp only an exactly-zero mean suppresses the spread; near-zero means divide normally
	if avg != 0 {
		spread = (max - min) / avg * 100
	}
	return fmt.Sprintf("%s/%s/%s ±%.1f%%", Fmt(min), Fmt(avg), Fmt(max), spread)
}

// Fmt renders a float compactly: 3-4 significant digits, scientific only
// when far from unity.
func Fmt(x float64) string {
	ax := math.Abs(x)
	switch {
	//detlint:allow floatcmp only literal zero formats as "0"; near-zero values take the scientific branch
	case x == 0:
		return "0"
	case ax >= 1e6 || ax < 1e-4:
		return fmt.Sprintf("%.3g", x)
	case ax >= 100:
		return fmt.Sprintf("%.1f", x)
	case ax >= 1:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting needed for
// the cell vocabulary used here; commas in cells are replaced).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = clean(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = clean(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Plot renders series columns of a table as a crude ASCII chart: the first
// column is X, every remaining numeric column is a series on a log-ish
// vertical scale. It exists so "figures" are visually inspectable in a
// terminal; the table itself carries the numbers.
func (t *Table) Plot(height int) string {
	if height < 4 {
		height = 8
	}
	type pt struct{ vals []float64 }
	var rows []pt
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range t.Rows {
		p := pt{}
		for _, c := range r[1:] {
			var v float64
			if _, err := fmt.Sscanf(c, "%g", &v); err != nil {
				v = math.NaN()
			}
			p.vals = append(p.vals, v)
			if !math.IsNaN(v) && v > 0 {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
		rows = append(rows, p)
	}
	if min >= max {
		return "(plot: degenerate range)\n"
	}
	lmin, lmax := math.Log(min), math.Log(max)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(rows)*3+2))
	}
	marks := "*+ox#@%&"
	for x, p := range rows {
		for s, v := range p.vals {
			if math.IsNaN(v) || v <= 0 {
				continue
			}
			y := int(float64(height-1) * (math.Log(v) - lmin) / (lmax - lmin))
			row := height - 1 - y
			grid[row][x*3+2] = marks[s%len(marks)]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [log scale %.3g..%.3g]\n", t.Title, min, max)
	for _, g := range grid {
		b.Write(g)
		b.WriteByte('\n')
	}
	for s, c := range t.Columns[1:] {
		fmt.Fprintf(&b, "  %c = %s", marks[s%len(marks)], c)
	}
	b.WriteByte('\n')
	return b.String()
}
