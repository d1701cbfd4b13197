package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Report is the rendered output of one experiment: the same rows/series
// the paper's table or figure shows, as text.
type Report struct {
	ID    string
	Title string
	// Paper summarizes what the paper found, so every report shows the
	// expected shape next to the measured one.
	Paper string

	buf strings.Builder
	// Metrics holds machine-readable headline numbers for tests and
	// EXPERIMENTS.md generation.
	Metrics map[string]float64
}

// NewReport creates an empty report.
func NewReport(id, title, paper string) *Report {
	return &Report{ID: id, Title: title, Paper: paper, Metrics: make(map[string]float64)}
}

// Printf appends a formatted line to the report body. The rendered
// string decides whether a newline is added (a bare format check would
// double-blank-line when a %s argument ends in \n).
func (r *Report) Printf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.buf.WriteString(s)
	if !strings.HasSuffix(s, "\n") {
		r.buf.WriteByte('\n')
	}
}

// Metric records a headline number and prints it.
func (r *Report) Metric(name string, value float64, unit string) {
	r.Metrics[name] = value
	r.Printf("  %-42s %10.2f %s", name, value, unit)
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	b.WriteString(r.buf.String())
	return b.String()
}

// Harness bounds an experiment's cost.
type Harness struct {
	// Runs is the number of seeds per condition (the paper ran each
	// experiment many times across four months; we sweep seeds).
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed uint64
}

// seeded returns base with run i's seed.
func (h Harness) seeded(base Options, i int) Options {
	base.Seed = h.Seed + uint64(i)
	return base
}

// DefaultHarness gives enough runs for stable box plots while staying
// fast enough for `go test -bench`.
func DefaultHarness() Harness { return Harness{Runs: 5, Seed: 1} }

// Spec is one registered experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Harness) *Report
}

var registry []Spec

func register(id, title string, run func(Harness) *Report) {
	registry = append(registry, Spec{ID: id, Title: title, Run: run})
}

// All returns every registered experiment, in registration order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns all experiment IDs sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, s := range registry {
		out = append(out, s.ID)
	}
	sort.Strings(out)
	return out
}
