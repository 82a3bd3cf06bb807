package mobilecongest

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// drainContextPool closes and forgets every context the run-context pool
// holds, so the next Plan starts cold.
func drainContextPool() {
	runContexts.mu.Lock()
	idle := runContexts.idle
	runContexts.idle, runContexts.slots = nil, 0
	runContexts.mu.Unlock()
	for _, e := range idle {
		e.rc.Close()
	}
}

// runSpec runs a spec's Plan and returns its records with the wall time
// zeroed, the one field that legitimately varies between runs.
func runSpec(t *testing.T, sp PlanSpec) []Record {
	t.Helper()
	p, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].Error != "" {
			t.Fatalf("cell %s: %s", recs[i].Name, recs[i].Error)
		}
		recs[i].ElapsedMS = 0
	}
	return recs
}

// poolSpecs are Plans that share topologies with one another: the Theorem
// 1.6 compiler and FloodMax on cliques under flip, the Theorem 1.2
// compiler and BFS on circulants under eavesdrop, a mixed plan over both
// families, each on both engines.
func poolSpecs() []PlanSpec {
	return []PlanSpec{
		{Topologies: []string{"clique"}, Ns: []int{8, 16}, Protocols: []string{"hardened-clique", "floodmax"},
			Adversaries: []string{"none", "flip"}, Fs: []int{2}, Engines: []string{"step", "shard"}, Workers: 2},
		{Topologies: []string{"circulant"}, Ns: []int{14}, Ks: []int{3}, Protocols: []string{"secure-broadcast", "bfs"},
			Adversaries: []string{"eavesdrop"}, Fs: []int{2}, Engines: []string{"shard", "step"}, Workers: 1},
		{Topologies: []string{"clique", "circulant"}, Ns: []int{8, 14}, Ks: []int{3}, Protocols: []string{"floodmax"},
			Adversaries: []string{"flip", "eavesdrop"}, Engines: []string{"step", "shard"}, Reps: 2, Workers: 3},
	}
}

// TestPooledPlansMatchCold runs Plans that share topologies one after
// another, with the run contexts and graphs earlier Plans parked, and
// requires every record to equal the same Plan's on an empty pool.
func TestPooledPlansMatchCold(t *testing.T) {
	specs := poolSpecs()
	seeds := []int64{1, 2}
	cold := map[int]map[int64][]Record{}
	for i, sp := range specs {
		cold[i] = map[int64][]Record{}
		for _, seed := range seeds {
			drainContextPool()
			sp.BaseSeed = seed
			cold[i][seed] = runSpec(t, sp)
		}
	}
	for round := range 2 {
		for _, seed := range seeds {
			for i, sp := range specs {
				sp.BaseSeed = seed
				if got := runSpec(t, sp); !reflect.DeepEqual(got, cold[i][seed]) {
					t.Fatalf("round %d, spec %d, seed %d: pooled records differ from a cold run:\n got %+v\nwant %+v", round, i, seed, got, cold[i][seed])
				}
			}
		}
	}
	if runContexts.slots == 0 {
		t.Fatal("the Plans parked no context; the comparison is vacuous")
	}
}

// TestPooledPlansConcurrent streams two Plans on the same topologies at
// once, twice over, so their workers take and park the same keys
// concurrently (run it under -race), and requires each Plan's records to
// match its cold run.
func TestPooledPlansConcurrent(t *testing.T) {
	specs := poolSpecs()
	a, b := specs[0], specs[2]
	a.BaseSeed, b.BaseSeed = 3, 4
	drainContextPool()
	wantA := runSpec(t, a)
	drainContextPool()
	wantB := runSpec(t, b)
	for range 2 {
		var wg sync.WaitGroup
		var gotA, gotB []Record
		wg.Add(2)
		go func() { defer wg.Done(); gotA = streamSpec(t, a) }()
		go func() { defer wg.Done(); gotB = streamSpec(t, b) }()
		wg.Wait()
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
			t.Fatal("concurrent pooled Plans differ from their cold runs")
		}
	}
}

// streamSpec collects a spec's Plan.Stream records in grid order (by
// record name), wall time zeroed. It reports failures with Error, so it may
// run off the test's goroutine.
func streamSpec(t *testing.T, sp PlanSpec) []Record {
	p, err := sp.Plan()
	if err != nil {
		t.Error(err)
		return nil
	}
	cells, err := p.cells()
	if err != nil {
		t.Error(err)
		return nil
	}
	order := map[string]int{}
	for i, c := range cells {
		order[c.rec.Name] = i
	}
	recs := make([]Record, len(cells))
	for rec, err := range p.Stream(context.Background()) {
		if err != nil {
			t.Error(err)
			return nil
		}
		rec.ElapsedMS = 0
		recs[order[rec.Name]] = rec
	}
	return recs
}

// TestPooledObservedPlansMatchCold runs a Plan that captures traces and
// builds a CorruptionLog per cell, over the Theorem 1.6 compiler and
// FloodMax under flip: once on an empty pool, then twice more on a warm
// pool, each after another Plan on the same cliques. Every record, its
// trace included, and every cell's corruption log must equal the cold run's.
func TestPooledObservedPlansMatchCold(t *testing.T) {
	sp := PlanSpec{Topologies: []string{"clique"}, Ns: []int{8}, Protocols: []string{"hardened-clique", "floodmax"},
		Adversaries: []string{"flip"}, Fs: []int{2}, Engines: []string{"step", "shard"}, Reps: 2, BaseSeed: 5, Workers: 2}
	other := poolSpecs()[0]
	run := func() ([]Record, map[string][]CorruptionEvent) {
		t.Helper()
		p, err := sp.Plan()
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		logs := map[string]*CorruptionLog{}
		p.CaptureTrace = true
		p.Observers = func(name string) []Observer {
			mu.Lock()
			defer mu.Unlock()
			logs[name] = NewCorruptionLog()
			return []Observer{logs[name]}
		}
		recs, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		events := map[string][]CorruptionEvent{}
		for i := range recs {
			if recs[i].Error != "" || len(recs[i].Trace) == 0 {
				t.Fatalf("cell %s: error %q, %d trace rounds", recs[i].Name, recs[i].Error, len(recs[i].Trace))
			}
			recs[i].ElapsedMS = 0
			events[recs[i].Name] = logs[recs[i].Name].Events()
		}
		return recs, events
	}
	drainContextPool()
	want, wantEvents := run()
	if len(wantEvents[want[0].Name]) == 0 {
		t.Fatal("the flip adversary corrupted nothing; the log comparison is vacuous")
	}
	for round := range 2 {
		runSpec(t, other)
		if runContexts.graph(graphKey{topo: "clique", n: 8, gen: topologies.Generation()}) == nil {
			t.Fatal("no clique8 context is parked; the traced Plan would run cold")
		}
		got, gotEvents := run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled traced records differ from a cold run:\n got %+v\nwant %+v", round, got, want)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("round %d: pooled cells' corruption logs differ from a cold run", round)
		}
	}
}

// TestPoolRegisterTopologyReplacement: replacing a topology between two
// Plans makes the second run on the new graph, not on the pooled one.
func TestPoolRegisterTopologyReplacement(t *testing.T) {
	RegisterTopology("test-pool-swap", func(n, _ int) (*Graph, error) { return graph.Cycle(n), nil })
	sp := PlanSpec{Topologies: []string{"test-pool-swap"}, Ns: []int{9}, Adversaries: []string{"flip"}, Reps: 2}
	first := runSpec(t, sp)
	RegisterTopology("test-pool-swap", func(n, _ int) (*Graph, error) { return graph.Path(n), nil })
	second := runSpec(t, sp)

	// The default workload floods for diameter+1 rounds: 5 on the 9-cycle,
	// 9 on the 9-path.
	want := func(g *Graph, rec Record) Record {
		res, err := NewScenario(WithGraph(g), WithProtocol(algorithms.FloodMax(g.Diameter()+1)), WithAdversaryName("flip", 1), WithSeed(rec.Seed)).Run()
		if err != nil {
			t.Fatal(err)
		}
		rec.Rounds, rec.Messages, rec.Bytes = res.Stats.Rounds, res.Stats.Messages, res.Stats.Bytes
		rec.MaxMsgBytes, rec.MaxEdgeCongestion, rec.CorruptedEdgeRounds = res.Stats.MaxMsgBytes, res.Stats.MaxEdgeCongestion, res.Stats.CorruptedEdgeRounds
		return rec
	}
	for i := range first {
		if w := want(graph.Cycle(9), first[i]); !reflect.DeepEqual(first[i], w) {
			t.Fatalf("cycle plan: %+v, want %+v", first[i], w)
		}
		if w := want(graph.Path(9), second[i]); !reflect.DeepEqual(second[i], w) {
			t.Fatalf("plan after the replacement: %+v, want %+v (the path)", second[i], w)
		}
	}
	if first[0].Rounds == second[0].Rounds {
		t.Fatal("the cycle and the path gave the same rounds; the check is vacuous")
	}
	runContexts.mu.Lock()
	defer runContexts.mu.Unlock()
	gen := topologies.Generation()
	for _, e := range runContexts.idle {
		if e.key.gen != gen {
			t.Fatalf("the pool still holds a context of generation %d after parking at %d", e.key.gen, gen)
		}
	}
}

// TestPoolSlotCap parks contexts for more slots than the cap and checks
// that the pool keeps the most recently parked ones within it, that its
// slot count matches its contexts, and that a graph over the cap on its
// own is never kept.
func TestPoolSlotCap(t *testing.T) {
	var p contextPool
	key := graphKey{topo: "clique", n: 64, gen: topologies.Generation()}
	g := graph.Clique(64)
	var parked []*congest.RunContext
	for range poolSlots/slotsOf(g) + 10 {
		rc := congest.NewRunContext()
		parked = append(parked, rc)
		p.park(key, g, rc)
		sum := 0
		for _, e := range p.idle {
			sum += slotsOf(e.g)
		}
		if p.slots != sum || p.slots > poolSlots {
			t.Fatalf("pool counts %d slots, holds %d, cap %d", p.slots, sum, poolSlots)
		}
	}
	keep := poolSlots / slotsOf(g)
	if len(p.idle) != keep {
		t.Fatalf("pool holds %d contexts, want %d", len(p.idle), keep)
	}
	for i, e := range p.idle {
		if e.rc != parked[len(parked)-keep+i] {
			t.Fatal("the pool evicted a context parked more recently than one it kept")
		}
	}
	big := graph.Circulant(poolSlots/8+1, 4)
	p.park(graphKey{topo: "circulant", n: big.N(), k: 4, gen: key.gen}, big, congest.NewRunContext())
	if p.graph(graphKey{topo: "circulant", n: big.N(), k: 4, gen: key.gen}) != nil {
		t.Fatal("the pool kept a context over its slot cap")
	}
	if p.take(key, g) != parked[len(parked)-1] {
		t.Fatal("take did not return the most recently parked context")
	}
}

// TestWarmMissAllocCeiling caps what the served-mixed sweep (16 cells over
// two cliques and two circulants, a new base seed each time, so every cell
// runs) allocates once its graphs and contexts are pooled: about 2.5k
// allocations of about 181 KB in all (231 KB under the race detector). The
// ceilings leave about 25% over that. Rebuilding the graphs and contexts
// per Plan puts it back at about 5.8k allocations and 1.56 MB.
func TestWarmMissAllocCeiling(t *testing.T) {
	const (
		ceiling      = 3_200
		bytesCeiling = 290_000
	)
	sp := PlanSpec{
		Topologies:  []string{"clique", "circulant"},
		Ns:          []int{16, 64},
		Protocols:   []string{"floodmax", "bfs"},
		Adversaries: []string{"none", "flip"},
		Fs:          []int{1},
		Engines:     []string{"step"},
		Workers:     1,
	}
	sweep := func() {
		sp.BaseSeed++
		p, err := sp.Plan()
		if err != nil {
			t.Fatal(err)
		}
		for rec, err := range p.Stream(context.Background()) {
			if err != nil || rec.Error != "" {
				t.Fatal(err, rec.Error)
			}
		}
	}
	sweep()
	allocs := testing.AllocsPerRun(5, sweep)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const sweeps = 5
	for range sweeps {
		sweep()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / sweeps
	if allocs > ceiling || bytes > bytesCeiling {
		t.Fatalf("warm miss sweep: %.0f allocs and %d bytes, ceilings %d and %d", allocs, bytes, ceiling, bytesCeiling)
	}
	t.Logf("%.0f allocs, %d bytes per sweep", allocs, bytes)
}
