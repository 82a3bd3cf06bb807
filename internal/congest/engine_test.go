package congest

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mobilecongest/internal/graph"
)

// allEngines are the engine configurations every forEngine test runs, each
// under a subtest name of its own. "shard" splits the nodes three ways so
// every test crosses real shard boundaries (and the pool) even on one core.
// "goroutine" asks for more shards than any test graph has nodes, which
// clamps the count to n: with shards balanced by edge count, that is about
// one node per pool goroutine, the most concurrent schedule the engines
// have.
var allEngines = []struct {
	name string
	e    Engine
}{
	{"goroutine", ShardEngine{Shards: 1 << 16}},
	{"step", ShardEngine{Shards: 1}},
	{"shard", ShardEngine{Shards: 3}},
}

// forEngine runs a subtest under every engine configuration.
func forEngine(t *testing.T, fn func(t *testing.T, e Engine)) {
	t.Helper()
	for _, c := range allEngines {
		t.Run(c.name, func(t *testing.T) { fn(t, c.e) })
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range []string{"step", "shard"} {
		e, err := Engines.Get(name)
		if err != nil || e.Name() != name {
			t.Fatalf("Engines.Get(%q) = %v, %v", name, e, err)
		}
	}
	if _, err := Engines.Get(""); err == nil {
		t.Fatal("empty engine name accepted; it must error rather than pick a silent default")
	}
	if _, err := Engines.Get("warp"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
	// The goroutine engine is gone; its name is unknown like any other.
	if _, err := Engines.Get("goroutine"); err == nil || err.Error() != `congest: unknown engine "goroutine" (have [shard step])` {
		t.Fatalf("Engines.Get(goroutine) error = %v", err)
	}
	if got := Engines.Names(); !reflect.DeepEqual(got, []string{"shard", "step"}) {
		t.Fatalf("Engines.Names() = %v", got)
	}
}

func TestEnginesFloodMaxConverges(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Cycle(10)
		res, err := e.Run(Config{Graph: g, Seed: 1}, floodMax(5))
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range res.Outputs {
			if o.(uint64) != 9 {
				t.Fatalf("node %d output %v, want 9", i, o)
			}
		}
		if res.Stats.Rounds != 5 || res.Stats.Messages != 100 {
			t.Fatalf("stats = %+v, want 5 rounds / 100 messages", res.Stats)
		}
	})
}

func TestEnginesRoundLimit(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Path(2)
		forever := func(rt Runtime) {
			for {
				rt.Exchange(map[graph.NodeID]Msg{})
			}
		}
		_, err := e.Run(Config{Graph: g, Seed: 1, MaxRounds: 10}, forever)
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("err = %v, want ErrRoundLimit", err)
		}
	})
}

func TestEnginesNonNeighborRejected(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Path(3)
		bad := func(rt Runtime) {
			if rt.ID() == 0 {
				rt.Exchange(map[graph.NodeID]Msg{2: U64Msg(1)})
			} else {
				rt.Exchange(map[graph.NodeID]Msg{})
			}
		}
		if _, err := e.Run(Config{Graph: g, Seed: 1}, bad); err == nil {
			t.Fatal("sending to non-neighbor accepted")
		}
	})
}

func TestEnginesEarlyTermination(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Clique(3)
		proto := func(rt Runtime) {
			rounds := 3
			if rt.ID() == 0 {
				rounds = 1
			}
			for r := 0; r < rounds; r++ {
				out := make(map[graph.NodeID]Msg)
				for _, v := range rt.Neighbors() {
					out[v] = U64Msg(uint64(rt.ID()))
				}
				rt.Exchange(out)
			}
			rt.SetOutput(true)
		}
		res, err := e.Run(Config{Graph: g, Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != 3 {
			t.Fatalf("rounds = %d, want 3", res.Stats.Rounds)
		}
	})
}

func TestEnginesBudgetEnforced(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Clique(4)
		_, err := e.Run(Config{Graph: g, Seed: 1, Adversary: corruptAll{}}, floodMax(2))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
	})
}

// randProto exercises private node randomness: nodes gossip random words and
// fold everything they hear into an accumulator.
func randProto(rounds int) Protocol {
	return func(rt Runtime) {
		acc := uint64(0)
		for r := 0; r < rounds; r++ {
			out := make(map[graph.NodeID]Msg)
			for _, v := range rt.Neighbors() {
				out[v] = U64Msg(rt.Rand().Uint64())
			}
			in := rt.Exchange(out)
			for _, m := range in {
				acc ^= U64(m)
			}
		}
		rt.SetOutput(acc)
	}
}

// TestEnginesEquivalence checks that the step engine and a three-shard shard
// engine produce identical Results (stats and outputs) for identical Configs
// across the in-package protocols. The root package carries the larger
// randomized corpus over real adversaries, checked against its reference
// simulator; this is the fast smoke version with stateless adversaries.
func TestEnginesEquivalence(t *testing.T) {
	protos := map[string]Protocol{
		"floodMax": floodMax(6),
		"rand":     randProto(4),
	}
	graphs := map[string]*graph.Graph{
		"cycle10":   graph.Cycle(10),
		"clique7":   graph.Clique(7),
		"petersen":  graph.Petersen(),
		"circulant": graph.Circulant(12, 2),
	}
	advs := map[string]Adversary{
		"none":     nil,
		"injector": injector{edge: graph.DirEdge{From: 0, To: 1}},
	}
	for pname, proto := range protos {
		for gname, g := range graphs {
			for aname, adv := range advs {
				for seed := int64(0); seed < 3; seed++ {
					cfg := Config{Graph: g, Seed: seed, Adversary: adv}
					want, err1 := (ShardEngine{Shards: 1}).Run(cfg, proto)
					got, err2 := (ShardEngine{Shards: 3}).Run(cfg, proto)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s/%s/%s seed %d: errors differ: %v vs %v", pname, gname, aname, seed, err1, err2)
					}
					if err1 != nil {
						continue
					}
					if want.Stats != got.Stats {
						t.Fatalf("%s/%s/%s seed %d: stats differ:\n step     %+v\n shard(3) %+v",
							pname, gname, aname, seed, want.Stats, got.Stats)
					}
					if !reflect.DeepEqual(want.Outputs, got.Outputs) {
						t.Fatalf("%s/%s/%s seed %d: outputs differ", pname, gname, aname, seed)
					}
				}
			}
		}
	}
}

// spendExactly is a total-budget adversary that corrupts exactly one fixed
// edge per round for its first `total` rounds and afterwards leaves the
// round untouched — the regression shape for the budget accounting: landing
// exactly on TotalEdgeRounds is within budget, and the post-exhaustion
// untouched rounds must not be counted as touches.
type spendExactly struct {
	total int
	edge  graph.DirEdge
	spent int
}

func (a *spendExactly) Intercept(round int, tr *RoundTraffic) {
	if a.spent >= a.total {
		return
	}
	tr.SetEdge(a.edge, U64Msg(uint64(0xBAD0BAD0)+uint64(round)))
	a.spent++
}

func (a *spendExactly) TotalEdgeRounds() int { return a.total }

func TestTotalBudgetExactLandingAllowed(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Cycle(6)
		adv := &spendExactly{total: 3, edge: graph.DirEdge{From: 0, To: 1}}
		res, err := e.Run(Config{Graph: g, Seed: 1, Adversary: adv}, floodMax(8))
		if err != nil {
			t.Fatalf("adversary landing exactly on its budget was aborted: %v", err)
		}
		if res.Stats.CorruptedEdgeRounds != 3 {
			t.Fatalf("CorruptedEdgeRounds = %d, want exactly the budget 3", res.Stats.CorruptedEdgeRounds)
		}
	})
}

func TestTotalBudgetStrictlyExceededAborts(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Cycle(6)
		// Declares 2 but spends 3: must abort in the third corrupted round.
		adv := &spendExactly{total: 3}
		adv.edge = graph.DirEdge{From: 0, To: 1}
		declared := &declaredBudget{inner: adv, total: 2}
		_, err := e.Run(Config{Graph: g, Seed: 1, Adversary: declared}, floodMax(8))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
	})
}

// declaredBudget wraps an adversary, overriding its declared total budget.
type declaredBudget struct {
	inner Adversary
	total int
}

func (d *declaredBudget) Intercept(round int, tr *RoundTraffic) {
	d.inner.Intercept(round, tr)
}

func (d *declaredBudget) TotalEdgeRounds() int { return d.total }

// TestPerRoundBudgetCheckedBeforeStats pins the accounting order: when a
// per-round violation aborts the run, the violating round's touches must not
// have leaked into a TotalBudget verdict first (an adversary within its total
// budget but over its per-round budget reports the per-round error).
func TestPerRoundBudgetCheckedBeforeStats(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Clique(4)
		_, err := e.Run(Config{Graph: g, Seed: 1, Adversary: overPerRound{}}, floodMax(2))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
		if err == nil || !strings.Contains(err.Error(), "touched in round") {
			t.Fatalf("expected the per-round violation to be reported, got %v", err)
		}
	})
}

// overPerRound touches 2 edges per round, declares per-round budget 1 and a
// generous total budget.
type overPerRound struct{}

func (overPerRound) Intercept(_ int, tr *RoundTraffic) {
	tr.SetEdge(graph.DirEdge{From: 0, To: 1}, U64Msg(0xAA))
	tr.SetEdge(graph.DirEdge{From: 2, To: 3}, U64Msg(0xBB))
}
func (overPerRound) PerRoundEdges() int   { return 1 }
func (overPerRound) TotalEdgeRounds() int { return 1000 }

// TestStepEngineWrappedRuntime mirrors TestWrappedRuntime under the step
// engine: compiler-style Runtime wrapping must be engine-agnostic.
func TestStepEngineWrappedRuntime(t *testing.T) {
	g := graph.Path(2)
	proto := func(rt Runtime) {
		w := &WrappedRuntime{Base: rt}
		w.ExchangePortsFn = doubledExchange(rt)
		payload := func(v Runtime) {
			out := map[graph.NodeID]Msg{}
			for _, nb := range v.Neighbors() {
				out[nb] = U64Msg(uint64(v.ID()) + 100)
			}
			in := v.Exchange(out)
			var got uint64
			for _, m := range in {
				got = U64(m)
			}
			v.SetOutput(got)
		}
		payload(w)
	}
	res, err := (ShardEngine{Shards: 1}).Run(Config{Graph: g, Seed: 1}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("physical rounds = %d, want 2", res.Stats.Rounds)
	}
	if res.Outputs[0].(uint64) != 101 || res.Outputs[1].(uint64) != 100 {
		t.Fatalf("outputs wrong: %v", res.Outputs)
	}
}

// TestNodeRandReuseMatchesFresh runs seeds 1, 2, 1, 1 in one context, on
// each engine, and checks every node's draws against a fresh
// rand.New(rand.NewSource(s)) for its seed s: a warm run restarts each
// generator (SeededRand), and that must replay the stream exactly, Read
// position included. In the seed-2 run only even nodes draw, so the third
// run restarts some generators from the seed they last had and some from
// another. Once every generator has repeated the run's seed, a run's Rand
// calls allocate nothing.
func TestNodeRandReuseMatchesFresh(t *testing.T) {
	type draws struct {
		head    [3]byte
		u       uint64
		n       int
		tail    [5]byte
		skipped bool
	}
	draw := func(r *rand.Rand) (d draws) {
		r.Read(d.head[:])
		d.u = r.Uint64()
		d.n = r.Intn(1000)
		r.Read(d.tail[:]) // leaves part of a word unread for the next run
		return d
	}
	g := graph.Cycle(9)
	for _, e := range []ShardEngine{{Shards: 1}, {Shards: 3}} {
		rc := NewRunContext()
		for run, seed := range []int64{1, 2, 1, 1} {
			evenOnly := seed == 2
			res, err := e.RunIn(rc, Config{Graph: g, Seed: seed}, func(rt Runtime) {
				if evenOnly && rt.ID()%2 == 1 {
					rt.SetOutput(draws{skipped: true})
					return
				}
				rt.SetOutput(draw(rt.Rand()))
			})
			if err != nil {
				t.Fatal(err)
			}
			seeder := rand.New(rand.NewSource(seed))
			for v, o := range res.Outputs {
				want := draw(rand.New(rand.NewSource(seeder.Int63())))
				if evenOnly && v%2 == 1 {
					want = draws{skipped: true}
				}
				if o != want {
					t.Fatalf("%s run %d (seed %d) node %d: drew %+v, a fresh generator %+v", e.Name(), run, seed, v, o, want)
				}
			}
		}
		cfg := Config{Graph: g, Seed: 1}
		if allocs := testing.AllocsPerRun(20, func() {
			cores := rc.nodeCores(cfg)
			for i := range cores {
				cores[i].Rand().Uint64()
			}
		}); allocs != 0 {
			t.Fatalf("%s: a warm same-seed run's Rand calls allocate %.0f times, want 0", e.Name(), allocs)
		}
		rc.Close()
	}
}

// TestSeededRandMatchesFresh restarts one SeededRand through new, repeated
// and returning seeds, with draws of every kind between them (a partial
// Read among them), and checks each restart's stream against a fresh
// rand.New(rand.NewSource(seed)). Once the generator has repeated a seed,
// neither a new seed nor a repeated one allocates.
func TestSeededRandMatchesFresh(t *testing.T) {
	draw := func(r *rand.Rand) (d [4]int64) {
		var b [3]byte
		r.Read(b[:])
		d[0] = int64(b[0])<<16 | int64(b[1])<<8 | int64(b[2])
		d[1] = int64(r.Uint64())
		d[2] = int64(r.Intn(1000))
		d[3] = r.Int63()
		r.Read(b[:2]) // leaves part of a word unread for the next restart
		return d
	}
	var g SeededRand
	for i, seed := range []int64{5, 5, 9, 5, 5, 9, 9, 7, -3, 7} {
		r := g.Restart(seed)
		if got, want := draw(r), draw(rand.New(rand.NewSource(seed))); got != want {
			t.Fatalf("restart %d (seed %d): drew %v, a fresh generator %v", i, seed, got, want)
		}
		if i > 0 && r != g.r {
			t.Fatal("Restart returned another *rand.Rand")
		}
	}
	seed := int64(100)
	if allocs := testing.AllocsPerRun(20, func() {
		seed++
		g.Restart(seed).Uint64()
		g.Restart(seed).Uint64()
	}); allocs != 0 {
		t.Fatalf("warm restarts allocate %.0f times, want 0", allocs)
	}
}
