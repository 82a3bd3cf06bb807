package adversary

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// chatter makes every node send its ID to every neighbour each round.
func chatter(rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		var seen []uint64
		for r := 0; r < rounds; r++ {
			out := make(map[graph.NodeID]congest.Msg)
			for _, v := range rt.Neighbors() {
				out[v] = congest.U64Msg(uint64(rt.ID()))
			}
			in := rt.Exchange(out)
			for _, m := range in {
				seen = append(seen, congest.U64(m))
			}
		}
		rt.SetOutput(seen)
	}
}

func TestMobileEavesdropperRecordsWithinBudget(t *testing.T) {
	g := graph.Clique(6)
	eve := NewMobileEavesdropper(g, 2, 7)
	_, err := congest.Run(congest.Config{Graph: g, Seed: 1, Adversary: eve}, chatter(5))
	if err != nil {
		t.Fatal(err)
	}
	// 2 edges/round x 2 directions x 5 rounds = at most 20 observations.
	if len(eve.View()) > 20 {
		t.Fatalf("view has %d observations, budget allows 20", len(eve.View()))
	}
	if len(eve.View()) == 0 {
		t.Fatal("eavesdropper saw nothing on a chatty clique")
	}
	perRound := make(map[int]map[graph.Edge]bool)
	for _, o := range eve.View() {
		if perRound[o.Round] == nil {
			perRound[o.Round] = make(map[graph.Edge]bool)
		}
		perRound[o.Round][o.Edge.Undirected()] = true
	}
	for r, edges := range perRound {
		if len(edges) > 2 {
			t.Fatalf("round %d: eavesdropped %d edges, budget 2", r, len(edges))
		}
	}
}

func TestStaticEavesdropperFixedSet(t *testing.T) {
	g := graph.Clique(6)
	eve := NewStaticEavesdropper(g, 3, 7)
	e1 := eve.ControlledEdges(0)
	e5 := eve.ControlledEdges(5)
	if len(e1) != 3 {
		t.Fatalf("controlled %d edges, want 3", len(e1))
	}
	for i := range e1 {
		if e1[i] != e5[i] {
			t.Fatal("static eavesdropper changed its edge set")
		}
	}
}

func TestScheduledEavesdropper(t *testing.T) {
	g := graph.Path(3)
	sched := [][]graph.Edge{{graph.NewEdge(0, 1)}, {graph.NewEdge(1, 2)}}
	eve := NewScheduledEavesdropper(g, sched)
	if got := eve.ControlledEdges(0)[0]; got != graph.NewEdge(0, 1) {
		t.Fatalf("round 0 edge = %v", got)
	}
	if got := eve.ControlledEdges(3)[0]; got != graph.NewEdge(1, 2) {
		t.Fatalf("round 3 should cycle to schedule[1], got %v", got)
	}
}

func TestByzantineFlipStaysWithinBudget(t *testing.T) {
	g := graph.Clique(5)
	adv := NewMobileByzantine(g, 2, 3, SelectRandom, CorruptFlip)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 1, Adversary: adv}, chatter(6))
	if err != nil {
		t.Fatal(err) // engine enforces budget; an error means we overspent
	}
	if res.Stats.CorruptedEdgeRounds == 0 {
		t.Fatal("flip adversary corrupted nothing")
	}
	if res.Stats.CorruptedEdgeRounds > 12 {
		t.Fatalf("corrupted %d edge-rounds, budget 12", res.Stats.CorruptedEdgeRounds)
	}
}

func TestByzantineCorruptionVisible(t *testing.T) {
	// With f = all edges of a 2-path and CorruptRandomize, node 1 should
	// receive something different from node 0's true ID with high
	// probability across rounds.
	g := graph.Path(2)
	adv := NewMobileByzantine(g, 1, 3, SelectRandom, CorruptRandomize)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 5, Adversary: adv}, chatter(20))
	if err != nil {
		t.Fatal(err)
	}
	seen := res.Outputs[1].([]uint64)
	diff := 0
	for _, v := range seen {
		if v != 0 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("randomizing adversary never changed node 0's messages")
	}
}

func TestRoundErrorRateBudget(t *testing.T) {
	g := graph.Clique(4)
	// Total budget 5, bursts of 3: spends 3, then 2, then nothing.
	adv := NewRoundErrorRate(g, 5, []int{3}, 9, SelectRandom, CorruptFlip)
	res, err := congest.Run(congest.Config{Graph: g, Seed: 2, Adversary: adv}, chatter(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CorruptedEdgeRounds > 5 {
		t.Fatalf("spent %d edge-rounds, budget 5", res.Stats.CorruptedEdgeRounds)
	}
	if adv.Spent() != res.Stats.CorruptedEdgeRounds {
		t.Fatalf("adversary accounting %d != engine accounting %d", adv.Spent(), res.Stats.CorruptedEdgeRounds)
	}
}

// mustRoundTraffic builds a free-standing slot view for direct adversary
// unit tests.
func mustRoundTraffic(t testing.TB, g *graph.Graph, tr congest.Traffic) *congest.RoundTraffic {
	t.Helper()
	rt, err := congest.NewRoundTraffic(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestSelectBusiest(t *testing.T) {
	g := graph.Path(3)
	rt := mustRoundTraffic(t, g, congest.Traffic{
		{From: 0, To: 1}: make(congest.Msg, 100),
		{From: 1, To: 2}: make(congest.Msg, 5),
	})
	st := &SelectorState{}
	edges := SelectBusiest(st, nil, 0, g, rt, 1)
	if len(edges) != 1 || edges[0] != graph.NewEdge(0, 1) {
		t.Fatalf("busiest = %v, want (0,1)", edges)
	}
	// The reusable load scratch must come back clean: a second selection on
	// different traffic must not see the first round's loads.
	rt2 := mustRoundTraffic(t, g, congest.Traffic{
		{From: 1, To: 2}: make(congest.Msg, 7),
	})
	edges = SelectBusiest(st, nil, 1, g, rt2, 1)
	if len(edges) != 1 || edges[0] != graph.NewEdge(1, 2) {
		t.Fatalf("busiest with reused state = %v, want (1,2)", edges)
	}
}

// TestSelectBusiestMatchesFullSort pins the bounded-insertion top-f against
// the definitional full sort (load descending, edge ascending) on random
// rounds.
func TestSelectBusiestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Circulant(16, 3)
	st := &SelectorState{}
	for trial := 0; trial < 50; trial++ {
		tr := congest.Traffic{}
		load := make(map[graph.Edge]int)
		for _, e := range g.Edges() {
			for _, de := range []graph.DirEdge{{From: e.U, To: e.V}, {From: e.V, To: e.U}} {
				if rng.Intn(3) == 0 {
					m := make(congest.Msg, rng.Intn(16))
					tr[de] = m
					load[e] += len(m)
				}
			}
		}
		want := make([]graph.Edge, 0, len(load))
		for e := range load {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool {
			if load[want[i]] != load[want[j]] {
				return load[want[i]] > load[want[j]]
			}
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		f := 1 + rng.Intn(5)
		if len(want) > f {
			want = want[:f]
		}
		got := SelectBusiest(st, nil, trial, g, mustRoundTraffic(t, g, tr), f)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d edges, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSelectIncident(t *testing.T) {
	g := graph.Clique(5)
	sel := SelectIncident(2)
	edges := sel(&SelectorState{}, nil, 0, g, nil, 3)
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3", len(edges))
	}
	for _, e := range edges {
		if e.U != 2 && e.V != 2 {
			t.Fatalf("edge %v not incident to victim", e)
		}
	}
}

func TestSelectRotatingCoversAllEdges(t *testing.T) {
	g := graph.Cycle(6)
	st := &SelectorState{}
	seen := make(map[graph.Edge]bool)
	for r := 0; r < 6; r++ {
		for _, e := range SelectRotating(st, nil, r, g, nil, 1) {
			seen[e] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("rotation covered %d/6 edges", len(seen))
	}
}

// TestRotatingSelectorReusableAcrossRuns is the regression test for the old
// closure-captured rotation offset: a rotating adversary reused across runs
// (as a Scenario run in a loop, or a Selector value shared by sweep cells)
// must corrupt the identical edge sequence in every same-seed run, because
// the rotation cursor now lives in per-run adversary state that the engine
// resets at run start.
func TestRotatingSelectorReusableAcrossRuns(t *testing.T) {
	g := graph.Cycle(8)
	adv := NewMobileByzantine(g, 2, 5, SelectRotating, CorruptFlip)
	runOnce := func() []congest.CorruptionEvent {
		cl := congest.NewCorruptionLog()
		if _, err := congest.Run(congest.Config{
			Graph: g, Seed: 3, Adversary: adv,
			Observers: []congest.Observer{cl},
		}, chatter(5)); err != nil {
			t.Fatal(err)
		}
		return cl.Events()
	}
	first := runOnce()
	second := runOnce()
	if len(first) == 0 {
		t.Fatal("rotating adversary corrupted nothing")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, same adversary instance, different corruption sequences:\n run1 %+v\n run2 %+v", first, second)
	}
}

func TestCorruptDropAndInject(t *testing.T) {
	m := congest.U64Msg(7)
	f, b := CorruptDrop(nil, nil, 0, graph.NewEdge(0, 1), m, m)
	if f != nil || b != nil {
		t.Fatal("drop did not drop")
	}
	tr, err := congest.NewRoundTraffic(graph.Clique(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, bi := CorruptInject(tr, rand.New(rand.NewSource(1)), 0, graph.NewEdge(0, 1), nil, nil)
	if len(fi) == 0 || len(bi) == 0 {
		t.Fatal("inject returned nothing")
	}
}

func TestCorruptSwap(t *testing.T) {
	a, b := congest.U64Msg(1), congest.U64Msg(2)
	f, w := CorruptSwap(nil, nil, 0, graph.NewEdge(0, 1), a, b)
	if congest.U64(f) != 2 || congest.U64(w) != 1 {
		t.Fatal("swap did not swap")
	}
}

func TestStaticByzantineFixedEdges(t *testing.T) {
	g := graph.Clique(5)
	adv := NewStaticByzantine(g, 2, 7, SelectRandom, CorruptFlip)
	// Run four rounds: the touched edge set must be identical across rounds.
	touched := make(map[graph.Edge]bool)
	tr := congest.Traffic{}
	for _, e := range g.Edges() {
		tr[graph.DirEdge{From: e.U, To: e.V}] = congest.U64Msg(1)
	}
	for round := 0; round < 4; round++ {
		rt := mustRoundTraffic(t, g, tr)
		adv.Intercept(round, rt)
		for de, m := range rt.Delivered() {
			if congest.U64(m) != 1 {
				touched[de.Undirected()] = true
			}
		}
	}
	if len(touched) > 2 {
		t.Fatalf("static adversary touched %d distinct edges, budget 2", len(touched))
	}
}

func TestViewBytesCanonical(t *testing.T) {
	g := graph.Path(3)
	eve := NewScheduledEavesdropper(g, [][]graph.Edge{{graph.NewEdge(0, 1), graph.NewEdge(1, 2)}})
	tr := congest.Traffic{
		{From: 0, To: 1}: congest.U64Msg(1),
		{From: 2, To: 1}: congest.U64Msg(2),
	}
	eve.Intercept(0, mustRoundTraffic(t, g, tr))
	b1 := eve.ViewBytes()
	// A second eavesdropper observing the same traffic in a different
	// schedule order yields identical canonical bytes.
	eve2 := NewScheduledEavesdropper(g, [][]graph.Edge{{graph.NewEdge(1, 2), graph.NewEdge(0, 1)}})
	eve2.Intercept(0, mustRoundTraffic(t, g, tr))
	b2 := eve2.ViewBytes()
	if string(b1) != string(b2) {
		t.Fatal("ViewBytes not canonical across observation orders")
	}
	if len(b1) == 0 {
		t.Fatal("empty view bytes despite observations")
	}
}

func TestSwapAdversaryInEngine(t *testing.T) {
	g := graph.Path(2)
	adv := NewMobileByzantine(g, 1, 3, SelectFixed([]graph.Edge{graph.NewEdge(0, 1)}), CorruptSwap)
	proto := func(rt congest.Runtime) {
		out := map[graph.NodeID]congest.Msg{}
		for _, v := range rt.Neighbors() {
			out[v] = congest.U64Msg(uint64(rt.ID()) + 10)
		}
		in := rt.Exchange(out)
		for _, m := range in {
			rt.SetOutput(congest.U64(m))
		}
	}
	res, err := congest.Run(congest.Config{Graph: g, Seed: 1, Adversary: adv}, proto)
	if err != nil {
		t.Fatal(err)
	}
	// Each node receives its own value back.
	if res.Outputs[0].(uint64) != 10 || res.Outputs[1].(uint64) != 11 {
		t.Fatalf("swap not applied: %v", res.Outputs)
	}
}

// TestNonEdgeSelectionAbortsCleanly: a Selector handing the byzantine an
// edge outside the graph (easy with SelectFixed's user-supplied lists) must
// abort the run with the non-edge injection error — never panic — matching
// the legacy map path.
func TestNonEdgeSelectionAbortsCleanly(t *testing.T) {
	g := graph.Cycle(6)
	// (0,3) is not an edge of the 6-cycle.
	adv := NewMobileByzantine(g, 1, 1, SelectFixed([]graph.Edge{graph.NewEdge(0, 3)}), CorruptInject)
	_, err := congest.Run(congest.Config{Graph: g, Seed: 1, Adversary: adv}, chatter(3))
	if err == nil || !strings.Contains(err.Error(), "injected on non-edge (0,3)") {
		t.Fatalf("err = %v, want the non-edge injection abort", err)
	}
	// Corruptions that leave a non-edge silent (drop) stay a no-op: nothing
	// was sent there, nothing changes, the run completes.
	adv = NewMobileByzantine(g, 1, 1, SelectFixed([]graph.Edge{graph.NewEdge(0, 3)}), CorruptDrop)
	if _, err := congest.Run(congest.Config{Graph: g, Seed: 1, Adversary: adv}, chatter(3)); err != nil {
		t.Fatalf("dropping a silent non-edge should be a no-op, got %v", err)
	}
}

func TestMaxIntHelper(t *testing.T) {
	if maxInt([]int{}) != 0 || maxInt([]int{3, 7, 2}) != 7 {
		t.Fatal("maxInt wrong")
	}
}

// TestRandomEdgesMatchesPerm pins the reused permutation to rand.Perm:
// for several (n, f, seed), each round's edges are those of
// rng.Perm(len(edges))[:f] on an RNG with the same seed, and the next
// draw of both RNGs agrees, so swapping the permutation buffer changes no
// adversary's choices; an f that covers the graph takes every edge without
// a draw. One scratch serves every case, growing and shrinking between
// graphs.
func TestRandomEdgesMatchesPerm(t *testing.T) {
	var d edgeDraw
	for _, n := range []int{3, 6, 16, 5} {
		g := graph.Clique(n)
		edges := g.Edges()
		for _, f := range []int{1, 2, 3, len(edges) - 1} {
			for _, seed := range []int64{1, 2, 99} {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for round := 0; round < 4; round++ {
					sel := d.randomEdges(g, f, got)
					if f >= len(edges) {
						// Every edge, in order, and no draw.
						if !reflect.DeepEqual(sel, edges) {
							t.Fatalf("n=%d f=%d: %v, want every edge %v", n, f, sel, edges)
						}
						if a, b := got.Int63(), want.Int63(); a != b {
							t.Fatalf("n=%d f=%d seed=%d: selecting every edge drew from the RNG", n, f, seed)
						}
						continue
					}
					p := want.Perm(len(edges))
					if len(sel) != f {
						t.Fatalf("n=%d f=%d seed=%d round %d: %d edges, want %d", n, f, seed, round, len(sel), f)
					}
					for i, e := range sel {
						if e != edges[p[i]] {
							t.Fatalf("n=%d f=%d seed=%d round %d: edge %d is %v, rand.Perm picks %v", n, f, seed, round, i, e, edges[p[i]])
						}
					}
					if a, b := got.Int63(), want.Int63(); a != b {
						t.Fatalf("n=%d f=%d seed=%d round %d: next draw %d, after rand.Perm %d", n, f, seed, round, a, b)
					}
				}
			}
		}
	}
}

// TestEavesdropperSelectionScratch: once warm, a mobile eavesdropper picks
// each round's edges without allocating, and a static one keeps its edge
// set in storage of its own, which later selections on the scratch cannot
// overwrite.
func TestEavesdropperSelectionScratch(t *testing.T) {
	g := graph.Clique(8)
	eve := NewMobileEavesdropper(g, 3, 4)
	eve.ControlledEdges(0)
	round := 1
	if allocs := testing.AllocsPerRun(50, func() {
		eve.ControlledEdges(round)
		round++
	}); allocs != 0 {
		t.Fatalf("a warm mobile selection allocates %.0f times, want 0", allocs)
	}

	static := NewStaticEavesdropper(g, 3, 4)
	fixed := static.ControlledEdges(0)
	want := slices.Clone(fixed)
	static.draw.randomEdges(g, 3, static.rng)
	static.draw.randomEdges(g, 3, static.rng)
	if got := static.ControlledEdges(1); !slices.Equal(got, want) || !slices.Equal(fixed, want) {
		t.Fatalf("static edge set changed from %v to %v (held %v) after later selections", want, got, fixed)
	}
}

// TestEavesdropperViewReuse: a warm mobile eavesdropper records a whole run
// without allocating, since ResetRun keeps the view's storage and each
// observation's bytes go into the run's slab, and each run's view is the
// one a fresh instance records. The messages vary in size, so the first
// run grows its slab while it holds earlier observations.
func TestEavesdropperViewReuse(t *testing.T) {
	g := graph.Clique(8)
	const rounds = 12
	trs := make([]*congest.RoundTraffic, rounds)
	for r := range trs {
		traffic := congest.Traffic{}
		for _, e := range g.Edges() {
			for _, de := range []graph.DirEdge{{From: e.U, To: e.V}, {From: e.V, To: e.U}} {
				m := make(congest.Msg, 1+(r*7+int(de.From)*3+int(de.To))%13)
				for i := range m {
					m[i] = byte(r*31 + int(de.From)*5 + int(de.To) + i)
				}
				traffic[de] = m
			}
		}
		trs[r] = mustRoundTraffic(t, g, traffic)
	}
	run := func(eve *Eavesdropper) {
		eve.ResetRun()
		for r, tr := range trs {
			eve.Intercept(r, tr)
		}
	}
	want := func() []byte {
		fresh := NewMobileEavesdropper(g, 3, 9)
		run(fresh)
		return fresh.ViewBytes()
	}()
	eve := NewMobileEavesdropper(g, 3, 9)
	for i := range 3 {
		run(eve)
		if got := eve.ViewBytes(); string(got) != string(want) {
			t.Fatalf("run %d: the view differs from a fresh instance's", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { run(eve) }); allocs != 0 {
		t.Fatalf("a warm run of %d intercepts allocates %.0f times, want 0", rounds, allocs)
	}
	if got := eve.ViewBytes(); string(got) != string(want) {
		t.Fatal("the last warm run's view differs from a fresh instance's")
	}
	held := 0
	for _, o := range eve.View() {
		held += len(o.Data)
	}
	if len(eve.slab) != held {
		t.Fatalf("the slab holds %d bytes for a run that observed %d", len(eve.slab), held)
	}
}
