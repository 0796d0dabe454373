package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Counters tallies the elementary operations the PRAM cost model charges
// for. One unit is one O(1) step of the underlying machine.
type Counters struct {
	// MergeSteps counts elementary intervals processed by envelope merges.
	MergeSteps int64
	// ClipSteps counts elementary intervals processed by segment clipping.
	ClipSteps int64
	// Crossings counts profile crossings discovered (output vertices when
	// the profile is a prefix envelope).
	Crossings int64
	// TreeOps counts persistent-tree node visits (split/join/search).
	TreeOps int64
	// TreeAllocs counts tree node writes: nodes created, and path nodes
	// copied or, in the in-place mode sequential-tree runs its profile tree
	// in (profiletree.Nodes.InPlace), rewritten. For a persistent solve it is the memory side of
	// persistence (experiment F3); in place it counts writes, not live
	// nodes, and keeps the value path copying would give.
	TreeAllocs int64
	// HullOps counts convex-chain operations (bridge searches, tangent
	// queries).
	HullOps int64
	// QuerySteps counts CG/ACG intersection-query descent steps.
	QuerySteps int64
	// Spans counts visible spans emitted.
	Spans int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.MergeSteps += o.MergeSteps
	c.ClipSteps += o.ClipSteps
	c.Crossings += o.Crossings
	c.TreeOps += o.TreeOps
	c.TreeAllocs += o.TreeAllocs
	c.HullOps += o.HullOps
	c.QuerySteps += o.QuerySteps
	c.Spans += o.Spans
}

// Total is the grand total of charged operations (the "work" in the PRAM
// sense, up to a constant factor).
func (c *Counters) Total() int64 {
	return c.MergeSteps + c.ClipSteps + c.Crossings + c.TreeOps + c.HullOps + c.QuerySteps + c.Spans
}

// Table is a minimal fixed-width table writer for experiment output; it
// right-aligns numeric cells and keeps rows aligned for terminal reading.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", width[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
