package mobilecongest

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mobilecongest/internal/algorithms"
)

func TestScenarioMinimal(t *testing.T) {
	res, err := NewScenario(
		WithTopology("cycle", 10, 0),
		WithProtocol(algorithms.FloodMax(5)),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(uint64) != 9 {
			t.Fatalf("node %d output %v, want 9", i, o)
		}
	}
	if res.Stats.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Stats.Rounds)
	}
}

func TestScenarioEngineSelection(t *testing.T) {
	base := []ScenarioOption{
		WithTopology("clique", 8, 0),
		WithProtocol(algorithms.FloodMax(2)),
		WithSeed(3),
	}
	for _, name := range EngineNames() {
		res, err := NewScenario(append(base, WithEngineName(name))...).Run()
		if err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if res.Stats.Rounds != 2 {
			t.Fatalf("engine %s: rounds = %d, want 2", name, res.Stats.Rounds)
		}
	}
	if s := NewScenario(append(base, WithEngineName("warp"))...); s != nil {
		if _, err := s.Run(); err == nil {
			t.Fatal("unknown engine name accepted")
		}
	}
}

func TestScenarioDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Scenario {
		return NewScenario(
			WithTopology("circulant", 12, 2),
			WithProtocol(algorithms.FloodMax(7)),
			WithAdversaryName("flip", 2),
			WithSeed(9),
		)
	}
	r1, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats || !reflect.DeepEqual(r1.Outputs, r2.Outputs) {
		t.Fatal("identical scenarios produced different results")
	}
	// Re-running the SAME scenario value must also be deterministic: the
	// registry adversary is rebuilt fresh each Run.
	s := mk()
	r3, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats != r4.Stats {
		t.Fatal("re-running one scenario value was not deterministic")
	}
}

// TestScenarioReusedAdversaryInstanceDeterministic: a Scenario holding one
// stateful adversary INSTANCE (WithAdversary, not a registry name) re-runs
// identically: the engine resets the adversary's per-run state (RNG stream,
// spent budget, rotation cursors) at every run start, and the Scenario's
// reused RunContext leaks nothing between runs.
func TestScenarioReusedAdversaryInstanceDeterministic(t *testing.T) {
	g := NewCirculant(12, 2)
	s := NewScenario(
		WithGraph(g),
		WithProtocol(algorithms.FloodMax(7)),
		WithAdversary(NewMobileByzantine(g, 2, 11)),
		WithSeed(9),
	)
	r1, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.CorruptedEdgeRounds == 0 {
		t.Fatal("byzantine instance corrupted nothing")
	}
	for rep := 0; rep < 2; rep++ {
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats != r1.Stats || !reflect.DeepEqual(r.Outputs, r1.Outputs) {
			t.Fatalf("re-run %d with a reused adversary instance diverged:\n first %+v\n rerun %+v", rep, r1.Stats, r.Stats)
		}
	}
}

// TestScenarioCloneConcurrent is the concurrent-reuse contract of Clone:
// one scenario fanned out across goroutines as clones (each with its own
// RunContext) runs race-free — this test is meaningful under -race, which CI
// runs — and every clone reproduces the original's result exactly. The
// adversary is configured by registry name, so each run builds a fresh
// instance; that is the documented pattern for fan-out.
func TestScenarioCloneConcurrent(t *testing.T) {
	base := NewScenario(
		WithTopology("circulant", 16, 2),
		WithProtocolName("broadcast"),
		WithAdversaryName("flip", 2),
		WithSeed(19),
	)
	// Resolve the topology once so the clones share one graph instance.
	if _, err := base.Graph(); err != nil {
		t.Fatal(err)
	}
	want, err := base.Clone().Run()
	if err != nil {
		t.Fatal(err)
	}
	const parallel = 8
	results := make([]*Result, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		c := base.Clone()
		go func() {
			defer wg.Done()
			// Two runs per clone: the clone's own RunContext reuse must stay
			// private to its goroutine.
			if _, err := c.Run(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = c.Run()
		}()
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if results[i].Stats != want.Stats || !reflect.DeepEqual(results[i].Outputs, want.Outputs) {
			t.Fatalf("clone %d diverged:\n want %+v\n got  %+v", i, want.Stats, results[i].Stats)
		}
	}
	// The original value is untouched and still runnable.
	got, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("original scenario diverged after clones ran: %+v vs %+v", got.Stats, want.Stats)
	}
}

func TestScenarioErrors(t *testing.T) {
	if _, err := NewScenario(WithProtocol(algorithms.FloodMax(1))).Run(); err == nil {
		t.Fatal("scenario without graph accepted")
	}
	if _, err := NewScenario(WithTopology("clique", 4, 0)).Run(); err == nil {
		t.Fatal("scenario without protocol accepted")
	}
	if _, err := NewScenario(
		WithTopology("nosuch", 4, 0),
		WithProtocol(algorithms.FloodMax(1)),
	).Run(); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("unknown topology: err = %v", err)
	}
	if _, err := NewScenario(
		WithTopology("clique", 4, 0),
		WithProtocol(algorithms.FloodMax(1)),
		WithAdversaryName("nosuch", 1),
	).Run(); err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Fatalf("unknown adversary: err = %v", err)
	}
	if _, err := NewScenario(
		WithTopology("hypercube", 12, 0), // not a power of two
		WithProtocol(algorithms.FloodMax(1)),
	).Run(); err == nil {
		t.Fatal("invalid hypercube size accepted")
	}
}

func TestScenarioOverlappingOptionsLastWins(t *testing.T) {
	// WithGraph vs WithTopology: whichever comes last decides.
	res, err := NewScenario(
		WithGraph(NewClique(4)),
		WithTopology("cycle", 10, 0),
		WithProtocol(algorithms.FloodMax(5)),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 10 {
		t.Fatalf("topology option applied last should win: got %d nodes, want 10", len(res.Outputs))
	}
	res, err = NewScenario(
		WithTopology("cycle", 10, 0),
		WithGraph(NewClique(4)),
		WithProtocol(algorithms.FloodMax(1)),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("graph option applied last should win: got %d nodes, want 4", len(res.Outputs))
	}
	// WithAdversary vs WithAdversaryName: last wins too.
	res, err = NewScenario(
		WithTopology("clique", 6, 0),
		WithProtocol(algorithms.FloodMax(2)),
		WithAdversaryName("flip", 2),
		WithAdversary(nil), // back to fault-free
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CorruptedEdgeRounds != 0 {
		t.Fatalf("later WithAdversary(nil) should displace the named adversary: %+v", res.Stats)
	}
}

func TestRegistryContents(t *testing.T) {
	for _, want := range []string{"clique", "circulant", "cycle", "grid", "hypercube", "path"} {
		if _, err := BuildTopology(want, 8, 0); err != nil {
			t.Fatalf("builtin topology %s: %v", want, err)
		}
	}
	// Expanders need d < n; the same (n, k) cell always builds the same graph.
	e1, err := BuildTopology("expander", 16, 4)
	if err != nil {
		t.Fatalf("builtin topology expander: %v", err)
	}
	e2, _ := BuildTopology("expander", 16, 4)
	if !reflect.DeepEqual(e1.Edges(), e2.Edges()) {
		t.Fatal("expander topology not deterministic for fixed (n, k)")
	}
	if _, err := BuildTopology("expander", 8, 9); err == nil {
		t.Fatal("expander with degree >= n accepted")
	}
	g, err := BuildTopology("clique", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"none", "eavesdrop", "flip", "drop", "randomize", "swap", "inject", "busiest", "static-flip", "static-eavesdrop"} {
		if _, err := BuildAdversary(want, g, 1, 1); err != nil {
			t.Fatalf("builtin adversary %s: %v", want, err)
		}
	}
	// Custom registrations are visible.
	RegisterTopology("test-petersen", func(_, _ int) (*Graph, error) {
		return NewClique(10), nil
	})
	if _, err := BuildTopology("test-petersen", 0, 0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range Topologies() {
		if n == "test-petersen" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered topology not listed")
	}
}
