package mobilecongest

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// drainContextPool forgets every context the run-context pool holds (each
// was closed when it was parked), so the next Plan starts cold.
func drainContextPool() {
	runContexts.mu.Lock()
	runContexts.idle, runContexts.slots = nil, 0
	runContexts.mu.Unlock()
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
// families, each on both engines, and FloodMax and BFS over both families
// under every kind of kept adversary at f 1 and 2 (more than a context
// keeps, so kept ones are also evicted).
func poolSpecs() []PlanSpec {
	return []PlanSpec{
		{Topologies: []string{"clique"}, Ns: []int{8, 16}, Protocols: []string{"hardened-clique", "floodmax"},
			Adversaries: []string{"none", "flip"}, Fs: []int{2}, Engines: []string{"step", "shard"}, Workers: 2},
		{Topologies: []string{"circulant"}, Ns: []int{14}, Ks: []int{3}, Protocols: []string{"secure-broadcast", "bfs"},
			Adversaries: []string{"eavesdrop"}, Fs: []int{2}, Engines: []string{"shard", "step"}, Workers: 1},
		{Topologies: []string{"clique", "circulant"}, Ns: []int{8, 14}, Ks: []int{3}, Protocols: []string{"floodmax"},
			Adversaries: []string{"flip", "eavesdrop"}, Engines: []string{"step", "shard"}, Reps: 2, Workers: 3},
		{Topologies: []string{"clique", "circulant"}, Ns: []int{8, 14}, Ks: []int{3}, Protocols: []string{"floodmax", "bfs"},
			Adversaries: []string{"flip", "drop", "busiest", "static-flip", "eavesdrop"}, Fs: []int{1, 2}, Workers: 2},
	}
}

// loggedRun is a cell's record and the corruptions its run logged. A
// record alone seldom shows which edges an adversary picked, so comparing
// the logs is what catches an adversary drawing from the wrong seed.
type loggedRun struct {
	Record
	events []CorruptionEvent
}

// runLogged runs a spec's Plan with a CorruptionLog on every cell and
// returns each cell's record, wall time zeroed, and log.
func runLogged(t *testing.T, sp PlanSpec) []loggedRun {
	t.Helper()
	p, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	logs := map[string]*CorruptionLog{}
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
	runs := make([]loggedRun, len(recs))
	for i, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("cell %s: %s", rec.Name, rec.Error)
		}
		rec.ElapsedMS = 0
		runs[i] = loggedRun{rec, logs[rec.Name].Events()}
	}
	return runs
}

// freshRun returns run with its statistics and corruption log from a
// Scenario of its own: a new context, and a new adversary built by name
// for the cell's seed.
func freshRun(t *testing.T, run loggedRun) loggedRun {
	t.Helper()
	rec, cl := run.Record, NewCorruptionLog()
	res, err := NewScenario(WithTopology(rec.Topology, rec.N, rec.K), WithProtocolName(rec.Protocol), WithProtocolParam(rec.P),
		WithAdversaryName(rec.Adversary, rec.F), WithEngineName(rec.Engine), WithBandwidth(rec.Bandwidth), WithSeed(rec.Seed),
		WithObserver(cl)).Run()
	if err != nil {
		t.Fatal(err)
	}
	rec.Rounds, rec.Messages, rec.Bytes = res.Stats.Rounds, res.Stats.Messages, res.Stats.Bytes
	rec.MaxMsgBytes, rec.MaxEdgeCongestion, rec.CorruptedEdgeRounds = res.Stats.MaxMsgBytes, res.Stats.MaxEdgeCongestion, res.Stats.CorruptedEdgeRounds
	return loggedRun{rec, cl.Events()}
}

// requireFresh fails unless every run equals its cell's own Scenario's.
func requireFresh(t *testing.T, what string, runs []loggedRun) {
	t.Helper()
	for _, run := range runs {
		if want := freshRun(t, run); !reflect.DeepEqual(run, want) {
			t.Fatalf("%s: cell %s differs from its own Scenario:\n got %+v\nwant %+v", what, run.Name, run, want)
		}
	}
}

// TestPooledPlansMatchCold runs Plans that share topologies one after
// another, with the run contexts, graphs and adversaries earlier Plans
// parked, and requires every record and corruption log to equal the same
// Plan's on an empty pool, and that to equal each cell's run in a Scenario
// of its own.
func TestPooledPlansMatchCold(t *testing.T) {
	specs := poolSpecs()
	seeds := []int64{1, 2}
	cold := map[int]map[int64][]loggedRun{}
	for i, sp := range specs {
		cold[i] = map[int64][]loggedRun{}
		for _, seed := range seeds {
			drainContextPool()
			sp.BaseSeed = seed
			cold[i][seed] = runLogged(t, sp)
			requireFresh(t, fmt.Sprintf("spec %d, seed %d", i, seed), cold[i][seed])
		}
	}
	for round := range 2 {
		for _, seed := range seeds {
			for i, sp := range specs {
				sp.BaseSeed = seed
				if got := runLogged(t, sp); !reflect.DeepEqual(got, cold[i][seed]) {
					t.Fatalf("round %d, spec %d, seed %d: pooled records differ from a cold run:\n got %+v\nwant %+v", round, i, seed, got, cold[i][seed])
				}
			}
		}
	}
	if st := ContextPoolStats(); st.Slots == 0 || st.Adversaries == 0 {
		t.Fatalf("the Plans parked %+v; the comparison is vacuous", st)
	}
}

// TestPooledPlansConcurrent streams three Plans on the same topologies at
// once, twice over, so their workers take and park the same keys, and the
// flip and eavesdrop adversaries kept with them, concurrently (run it under
// -race), and requires each Plan's records to match its cold run.
func TestPooledPlansConcurrent(t *testing.T) {
	specs := poolSpecs()
	plans := []PlanSpec{specs[0], specs[2], specs[3]}
	want := make([][]Record, len(plans))
	for i := range plans {
		plans[i].BaseSeed = int64(3 + i)
		drainContextPool()
		want[i] = runSpec(t, plans[i])
	}
	for range 2 {
		var wg sync.WaitGroup
		got := make([][]Record, len(plans))
		for i, sp := range plans {
			wg.Add(1)
			go func() { defer wg.Done(); got[i] = streamSpec(t, sp) }()
		}
		wg.Wait()
		if !reflect.DeepEqual(got, want) {
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

// TestPooledObservedPlansMatchCold runs a Plan that builds a TraceObserver
// and a CorruptionLog per cell, over the Theorem 1.6 compiler and FloodMax
// under flip: once on an empty pool, then twice more on a warm pool, each
// after another Plan on the same cliques. Every record, every cell's trace
// and every cell's corruption log must equal the cold run's.
func TestPooledObservedPlansMatchCold(t *testing.T) {
	sp := PlanSpec{Topologies: []string{"clique"}, Ns: []int{8}, Protocols: []string{"hardened-clique", "floodmax"},
		Adversaries: []string{"flip"}, Fs: []int{2}, Engines: []string{"step", "shard"}, Reps: 2, BaseSeed: 5, Workers: 2}
	other := poolSpecs()[0]
	type observed struct {
		trace  []RoundTrace
		events []CorruptionEvent
	}
	run := func() ([]Record, map[string]observed) {
		t.Helper()
		p, err := sp.Plan()
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		traces := map[string]*TraceObserver{}
		logs := map[string]*CorruptionLog{}
		p.Observers = func(name string) []Observer {
			mu.Lock()
			defer mu.Unlock()
			traces[name], logs[name] = NewTraceObserver(), NewCorruptionLog()
			return []Observer{traces[name], logs[name]}
		}
		recs, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		obs := map[string]observed{}
		for i := range recs {
			name := recs[i].Name
			if recs[i].Error != "" || len(traces[name].Rounds()) == 0 {
				t.Fatalf("cell %s: error %q, %d trace rounds", name, recs[i].Error, len(traces[name].Rounds()))
			}
			recs[i].ElapsedMS = 0
			obs[name] = observed{traces[name].Rounds(), logs[name].Events()}
		}
		return recs, obs
	}
	drainContextPool()
	want, wantObs := run()
	if len(wantObs[want[0].Name].events) == 0 {
		t.Fatal("the flip adversary corrupted nothing; the log comparison is vacuous")
	}
	for round := range 2 {
		runSpec(t, other)
		if runContexts.graph(graphKey{topo: "clique", n: 8, gen: topologies.Generation()}) == nil {
			t.Fatal("no clique8 context is parked; the traced Plan would run cold")
		}
		got, gotObs := run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled traced records differ from a cold run:\n got %+v\nwant %+v", round, got, want)
		}
		if !reflect.DeepEqual(gotObs, wantObs) {
			t.Fatalf("round %d: pooled cells' traces or corruption logs differ from a cold run", round)
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

// TestPoolRegisterAdversaryReplacement: replacing a built-in adversary
// between two Plans makes the second build the new one for every cell, not
// run the instance the first left with its pooled context. A replacement
// made while a Plan streams reaches the worker's next cell, and one made
// between two Runs of a Scenario reaches its second Run.
func TestPoolRegisterAdversaryReplacement(t *testing.T) {
	flip := func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip), nil
	}
	drop := func(g *Graph, f int, seed int64) (Adversary, error) {
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptDrop), nil
	}
	adversaries.RegisterBuiltIn("test-pool-adv", flip)
	sp := PlanSpec{Topologies: []string{"clique"}, Ns: []int{8}, Protocols: []string{"floodmax"},
		Adversaries: []string{"test-pool-adv"}, Reps: 3, Workers: 1}
	drainContextPool()
	first := runLogged(t, sp)
	if ContextPoolStats().Adversaries == 0 {
		t.Fatal("the first Plan kept no adversary; the check is vacuous")
	}
	var builds atomic.Int32
	RegisterAdversary("test-pool-adv", func(g *Graph, f int, seed int64) (Adversary, error) {
		builds.Add(1)
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptDrop), nil
	})
	second := runLogged(t, sp)
	if n := builds.Load(); n != int32(len(second)) {
		t.Fatalf("the Plan after the replacement built %d adversaries for %d cells", n, len(second))
	}
	requireFresh(t, "after the replacement", second)
	if reflect.DeepEqual(first, second) {
		t.Fatal("the flipping and the dropping adversary gave the same runs; the check is vacuous")
	}

	// Mid-stream: the replacement follows the first record. With one
	// worker, which runs at most one cell ahead of the consumer, every
	// cell from rep=2 on starts after it.
	adversaries.RegisterBuiltIn("test-pool-adv", flip)
	sp.Reps = 5
	p, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string]*CorruptionLog{}
	p.Observers = func(name string) []Observer {
		logs[name] = NewCorruptionLog()
		return []Observer{logs[name]}
	}
	var late []loggedRun
	for rec, err := range p.Stream(context.Background()) {
		if err != nil || rec.Error != "" {
			t.Fatal(err, rec.Error)
		}
		if rec.Rep == 0 {
			RegisterAdversary("test-pool-adv", drop)
		}
		if rec.Rep >= 2 {
			rec.ElapsedMS = 0
			late = append(late, loggedRun{rec, logs[rec.Name].Events()})
		}
	}
	if len(late) != 3 {
		t.Fatalf("the stream yielded %d cells from rep=2 on, want 3", len(late))
	}
	requireFresh(t, "mid-stream replacement", late)
	if reflect.DeepEqual(late[0], first[2]) {
		t.Fatal("rep=2 ran as under the flipping adversary; the check is vacuous")
	}

	// A warm Scenario: its second Run follows the replacement.
	adversaries.RegisterBuiltIn("test-pool-adv", flip)
	opts := []ScenarioOption{WithTopology("clique", 8, 0), WithProtocolName("floodmax"), WithAdversaryName("test-pool-adv", 1), WithSeed(7)}
	sc := NewScenario(opts...)
	before, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	RegisterAdversary("test-pool-adv", drop)
	after, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewScenario(opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats != cold.Stats {
		t.Fatalf("warm Scenario after the replacement: %+v, a cold one %+v", after.Stats, cold.Stats)
	}
	if before.Stats == after.Stats {
		t.Fatal("the flipping and the dropping adversary gave the same Stats; the check is vacuous")
	}
}

// wrappedByzantine is a user adversary that embeds a built-in one, and so
// has its Reseed method.
type wrappedByzantine struct{ *adversary.Byzantine }

// TestPoolKeepsOnlyBuiltInAdversaries: a user-registered adversary is built
// anew for every cell, also when its instances have a Reseed method, since
// its factory may derive more than the instance's seed from its seed
// argument: here one hands the instance seed+1, another wraps it. Warm
// Plans must run every cell as its own Scenario does. A Scenario likewise
// builds a user-registered adversary for every Run, and a built-in one once.
func TestPoolKeepsOnlyBuiltInAdversaries(t *testing.T) {
	var builds atomic.Int32
	RegisterAdversary("test-derived-seed", func(g *Graph, f int, seed int64) (Adversary, error) {
		builds.Add(1)
		return adversary.NewMobileByzantine(g, f, seed+1, adversary.SelectRandom, adversary.CorruptFlip), nil
	})
	RegisterAdversary("test-wrapped", func(g *Graph, f int, seed int64) (Adversary, error) {
		builds.Add(1)
		return wrappedByzantine{adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)}, nil
	})
	sp := PlanSpec{Topologies: []string{"clique"}, Ns: []int{8}, Protocols: []string{"floodmax"},
		Adversaries: []string{"test-derived-seed", "test-wrapped"}, Reps: 3, Workers: 1}
	for round := range 2 {
		sp.BaseSeed = int64(round + 1)
		builds.Store(0)
		runs := runLogged(t, sp)
		if n := builds.Load(); n != int32(len(runs)) {
			t.Fatalf("round %d: %d user adversaries built for %d cells", round, n, len(runs))
		}
		requireFresh(t, fmt.Sprintf("round %d", round), runs)
	}

	// runs runs a Scenario three times and requires each run to equal a
	// fresh Scenario's; it returns the builds the three runs made.
	runs := func(name string, counter *atomic.Int32) int32 {
		t.Helper()
		opts := []ScenarioOption{WithTopology("clique", 8, 0), WithProtocolName("floodmax"), WithAdversaryName(name, 1), WithSeed(3)}
		sc := NewScenario(opts...)
		var warm [3]congest.Stats
		counter.Store(0)
		for i := range warm {
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			warm[i] = res.Stats
		}
		n := counter.Load()
		for i, st := range warm {
			cold, err := NewScenario(opts...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if st != cold.Stats {
				t.Fatalf("%s: run %d of a warm Scenario %+v, a fresh one %+v", name, i, st, cold.Stats)
			}
		}
		return n
	}
	if n := runs("test-wrapped", &builds); n != 3 {
		t.Fatalf("three Runs of a Scenario built the user adversary %d times, want 3", n)
	}
	var builtIn atomic.Int32
	adversaries.RegisterBuiltIn("test-counted-builtin", func(g *Graph, f int, seed int64) (Adversary, error) {
		builtIn.Add(1)
		return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip), nil
	})
	if n := runs("test-counted-builtin", &builtIn); n != 1 {
		t.Fatalf("three Runs of a Scenario built the built-in adversary %d times, want 1", n)
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
		p.park(key, g, warmContext{rc: rc})
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
	p.park(graphKey{topo: "circulant", n: big.N(), k: 4, gen: key.gen}, big, warmContext{rc: congest.NewRunContext()})
	if p.graph(graphKey{topo: "circulant", n: big.N(), k: 4, gen: key.gen}) != nil {
		t.Fatal("the pool kept a context over its slot cap")
	}
	if w := p.take(key, g); w.rc != parked[len(parked)-1] {
		t.Fatal("take did not return the most recently parked context")
	}
}

// TestPoolBoundsParkedBytes checks that the pool's slot cap bounds the
// bytes it keeps for a compiler: a parked context keeps no run memo, no
// node scratch and no node RNGs, so what the pool holds grows with its
// slots. Each case is a 1-worker Plan that parks three contexts: clique 16,
// 32 and 48 under flip f=1 (3,488 slots) for the Theorem 1.6 compiler and
// for FloodMax, and cycle 64, 128 and 256 under eavesdrop f=1 (896 slots)
// for the Theorem 1.2 compiler, whose every node draws randomness. The
// heap they hold, after two GCs and over a drained-pool baseline, must stay
// under maxBytesPerSlot a slot, so a full pool of such contexts holds under
// poolSlots times that (512 MB). Hardened-clique reads about 240–400 B a
// slot, floodmax about 180 and the cycle case about 525 (950 when it is the
// process's first secure-broadcast Plan, whose one-time builds count too);
// a parked context that kept its node scratch would put hardened-clique at
// about 11.2 KB, and one that kept its nodes' RNGs (about 5 KB a node) the
// cycle case at about 3.3–3.7 KB.
func TestPoolBoundsParkedBytes(t *testing.T) {
	const maxBytesPerSlot = 2048
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cliques := func(proto string) PlanSpec {
		return PlanSpec{Topologies: []string{"clique"}, Ns: []int{16, 32, 48}, Protocols: []string{proto},
			Adversaries: []string{"flip"}, Fs: []int{1}, Workers: 1}
	}
	for _, c := range []struct {
		name  string
		spec  PlanSpec
		slots int
	}{
		{"hardened-clique", cliques("hardened-clique"), 3488},
		{"floodmax", cliques("floodmax"), 3488},
		{"secure-broadcast on cycles", PlanSpec{Topologies: []string{"cycle"}, Ns: []int{64, 128, 256}, Protocols: []string{"secure-broadcast"},
			Adversaries: []string{"eavesdrop"}, Fs: []int{1}, Workers: 1}, 896},
	} {
		drainContextPool()
		base := heap()
		runSpec(t, c.spec)
		held := heap() - base
		st := ContextPoolStats()
		if st.Contexts != 3 || st.Slots != c.slots {
			t.Fatalf("%s: the pool holds %d contexts over %d slots, want 3 over %d", c.name, st.Contexts, st.Slots, c.slots)
		}
		perSlot := held / int64(st.Slots)
		t.Logf("%s: %d bytes parked over %d slots, %d B a slot", c.name, held, st.Slots, perSlot)
		if perSlot > maxBytesPerSlot {
			t.Fatalf("%s: parked contexts hold %d B a slot, bound %d", c.name, perSlot, maxBytesPerSlot)
		}
	}
	drainContextPool()
}

// TestWarmMissAllocCeiling caps what the served-mixed sweep (16 cells over
// two cliques and two circulants, a new base seed each time, so every cell
// runs) allocates once its graphs, contexts and flip adversaries are
// pooled: about 2.45k allocations of about 97 KB in all (112 KB under the
// race detector). The ceilings leave about 25% over that. Building a new
// adversary per cell puts it at about 181 KB, and rebuilding the graphs
// and contexts per Plan too at about 5.8k allocations and 1.56 MB.
func TestWarmMissAllocCeiling(t *testing.T) {
	const (
		ceiling      = 3_150
		bytesCeiling = 140_000
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
