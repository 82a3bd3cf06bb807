// Package harness runs the experiment suite that All lists (and
// `mobilesim -list` prints): one experiment per theorem of the paper, each
// producing a table (rows of measurements) whose shape must match the
// theorem's claim. cmd/mobilesim prints them; the root bench_test.go wraps
// each in a testing.B benchmark.
package harness

import (
	"fmt"
	"sort"
	"strings"

	mc "mobilecongest"
)

// observe, when non-nil, builds fresh observers for every simulation the
// harness runs; cmd/mobilesim wires its -trace flag here.
var observe func() []mc.Observer

// UseObservers installs a per-run observer factory for all experiments (nil
// disables). Observers are per-run state, so the factory is invoked once per
// simulation and its results attached to that run only.
func UseObservers(factory func() []mc.Observer) { observe = factory }

// runScenario executes one simulation on the Scenario's default engine, with
// the harness-wide observers attached. It is the single funnel every
// experiment's runs go through. Tables do not depend on the engine: the
// experiments read no clock, and the equivalence suites pin every engine's
// results.
func runScenario(proto mc.Protocol, opts ...mc.ScenarioOption) (*mc.Result, error) {
	opts = append(opts, mc.WithProtocol(proto))
	if observe != nil {
		opts = append(opts, mc.WithObserver(observe()...))
	}
	return mc.NewScenario(opts...).Run()
}

// Row is one measurement row: ordered label/value pairs.
type Row struct {
	Labels []string
	Values []string
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement being validated
	Columns []string
	Rows    []Row
	// Pass reports whether the measured shape matches the claim.
	Pass bool
	// Notes carries failure details or context.
	Notes []string
}

// AddRow appends a row of stringified values.
func (t *Table) AddRow(vals ...any) {
	r := Row{}
	for _, v := range vals {
		r.Values = append(r.Values, fmt.Sprint(v))
	}
	t.Rows = append(t.Rows, r)
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	status := "PASS"
	if !t.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", t.ID, t.Title, status)
	fmt.Fprintf(&b, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r.Values {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(vals []string) {
		b.WriteString("   ")
		for i, v := range vals {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, v)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r.Values)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) (*Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Get returns an experiment by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns all experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
