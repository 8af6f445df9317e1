// Package stats provides the metric accumulators the experiment harness
// uses to aggregate repeated simulation runs: running mean/variance
// (Welford), 95% confidence intervals, and labelled series for table
// printing.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates observations with Welford's online algorithm. The
// zero value is ready to use.
type Sample struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += float64(delta * (x - s.mean))
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the normal approximation (z = 1.96); adequate for the >= 10 run
// repetitions the harness performs.
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String formats mean ± CI95.
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95())
}

// Table accumulates labelled samples laid out as rows × columns, and
// prints itself in the fixed-width format the benchmark harness emits for
// every reproduced figure.
type Table struct {
	Title    string
	RowName  string
	cols     []string
	rows     []string
	cells    map[string]*Sample
	rowIndex map[string]bool
	colIndex map[string]bool
}

// NewTable creates an empty table.
func NewTable(title, rowName string) *Table {
	return &Table{
		Title:    title,
		RowName:  rowName,
		cells:    make(map[string]*Sample),
		rowIndex: make(map[string]bool),
		colIndex: make(map[string]bool),
	}
}

func key(row, col string) string { return row + "\x00" + col }

// Add records an observation in cell (row, col), creating the row/column
// on first use (order of first use is preserved).
func (t *Table) Add(row, col string, x float64) {
	if !t.rowIndex[row] {
		t.rowIndex[row] = true
		t.rows = append(t.rows, row)
	}
	if !t.colIndex[col] {
		t.colIndex[col] = true
		t.cols = append(t.cols, col)
	}
	k := key(row, col)
	s, ok := t.cells[k]
	if !ok {
		s = &Sample{}
		t.cells[k] = s
	}
	s.Add(x)
}

// Cell returns the sample at (row, col), or nil.
func (t *Table) Cell(row, col string) *Sample { return t.cells[key(row, col)] }

// Mean returns the cell mean, or NaN when the cell is empty.
func (t *Table) Mean(row, col string) float64 {
	s := t.Cell(row, col)
	if s == nil || s.N() == 0 {
		return math.NaN()
	}
	return s.Mean()
}

// Rows returns the row labels in insertion order.
func (t *Table) Rows() []string { return append([]string(nil), t.rows...) }

// Cols returns the column labels in insertion order.
func (t *Table) Cols() []string { return append([]string(nil), t.cols...) }

// String renders the table with one line per row: mean values, column-
// aligned, CI95 in parentheses when meaningful.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	fmt.Fprintf(&b, "%-24s", t.RowName)
	for _, c := range t.cols {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-24s", r)
		for _, c := range t.cols {
			s := t.Cell(r, c)
			if s == nil || s.N() == 0 {
				fmt.Fprintf(&b, "%16s", "-")
				continue
			}
			fmt.Fprintf(&b, "%16.4g", s.Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StringWithCI renders the table with mean ± 95% CI per cell (wider; the
// cmd drivers use it, benchmarks print the compact String form).
func (t *Table) StringWithCI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	fmt.Fprintf(&b, "%-24s", t.RowName)
	for _, c := range t.cols {
		fmt.Fprintf(&b, "%22s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-24s", r)
		for _, c := range t.cols {
			s := t.Cell(r, c)
			if s == nil || s.N() == 0 {
				fmt.Fprintf(&b, "%22s", "-")
				continue
			}
			fmt.Fprintf(&b, "%22s", fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table in long form — one `row,col,n,mean,ci95` line
// per populated cell, preceded by a header — for the repro pipeline's
// machine-readable output. Cell order follows row-major insertion order,
// so CSV output inherits the same determinism contract as String.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("row,col,n,mean,ci95\n")
	for _, r := range t.rows {
		for _, c := range t.cols {
			s := t.Cell(r, c)
			if s == nil || s.N() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s,%s,%d,%g,%g\n", csvField(r), csvField(c), s.N(), s.Mean(), s.CI95())
		}
	}
	return b.String()
}

// csvField quotes a field when it contains a comma, quote, or newline.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of xs; it sorts a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}
