// Package exp contains the experiment harness: one registered
// experiment per table and figure in the paper's evaluation (see the
// per-experiment index in DESIGN.md). Each experiment constructs its
// workload, runs the candidate CCAs on the netem substrate, and emits a
// Report whose tables mirror the rows/series the paper plots.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig1", "tab5".
	ID string
	// Title is a one-line description.
	Title string
	// Paper summarises what the paper reports, for EXPERIMENTS.md
	// comparisons.
	Paper string
	// Run produces the report. The context supplies the seed, the
	// quick/full switch, the worker budget, and the telemetry sinks;
	// experiments fan their independent jobs out via Sweep.
	Run func(rc *RunContext) *Report
}

// Report is the output of one experiment.
type Report struct {
	ID, Title string
	Tables    []Table
	Notes     []string
}

// Table is one printable result block.
type Table struct {
	Name string
	Cols []string
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// String renders one table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "-- %s --\n", t.Name)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

// Register adds an experiment; duplicate IDs panic.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, x := range registry {
		if x.ID == e.ID {
			panic("exp: duplicate experiment " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
