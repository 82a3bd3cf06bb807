package rsim

import (
	"bytes"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// mergeXor is a simple commutative aggregate for tests.
func mergeXor(_ int, a, b []byte) []byte {
	out := make([]byte, 8)
	copy(out, a)
	for i := 0; i < 8 && i < len(b); i++ {
		out[i] ^= b[i]
	}
	return out
}

func TestViewsCliqueStars(t *testing.T) {
	n := 6
	p := treepack.CliqueStars(n)
	views := Views(p)
	if len(views) != n {
		t.Fatalf("views for %d nodes", len(views))
	}
	if d := MaxDepth(views); d != 2 {
		t.Fatalf("max depth %d, want 2", d)
	}
	// Root's view: depth 0 in every tree.
	for j := range p.Trees {
		if views[n-1][j].Depth != 0 {
			t.Fatalf("root depth in tree %d = %d", j, views[n-1][j].Depth)
		}
	}
}

func TestViewsBrokenTreeAbsent(t *testing.T) {
	p := &treepack.Packing{Root: 0}
	tr := treepack.NewTree(3, 0)
	tr.Parent[1] = 2 // 2 has no parent -> 1 dangles
	p.Trees = append(p.Trees, tr)
	views := Views(p)
	if views[1][0].Depth != -1 {
		t.Fatalf("dangling node depth = %d, want -1", views[1][0].Depth)
	}
	if views[2][0].Depth != -1 {
		t.Fatalf("absent node depth = %d, want -1", views[2][0].Depth)
	}
}

func runPacking(t *testing.T, g *graph.Graph, p *treepack.Packing, adv congest.Adversary, proto congest.Protocol) *congest.Result {
	t.Helper()
	res, err := congest.Run(congest.Config{Graph: g, Seed: 5, Adversary: adv, Shared: Views(p)}, proto)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBroadcastDownFaultFree(t *testing.T) {
	n := 8
	g := graph.Clique(n)
	p := treepack.CliqueStars(n)
	payload := []byte("hello-tree")
	proto := func(rt congest.Runtime) {
		views := rt.Shared().([][]TreeView)[rt.ID()]
		payloads := make([][]byte, len(views))
		for j := range views {
			if views[j].Depth == 0 {
				payloads[j] = payload
			}
		}
		got := BroadcastDown(rt, views, payloads, 2, 3)
		okAll := true
		for j := range got {
			if !bytes.Equal(got[j], payload) {
				okAll = false
			}
		}
		rt.SetOutput(okAll)
	}
	res := runPacking(t, g, p, nil, proto)
	for i, o := range res.Outputs {
		if o != true {
			t.Fatalf("node %d missed a broadcast", i)
		}
	}
	if want := Rounds(2, 3); res.Stats.Rounds != want {
		t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, want)
	}
}

func TestBroadcastDownUnderMobileAdversary(t *testing.T) {
	n := 12
	g := graph.Clique(n)
	p := treepack.CliqueStars(n)
	payload := []byte{0xAA, 0xBB, 0xCC}
	rep := 7
	adv := adversary.NewMobileByzantine(g, 2, 3, adversary.SelectRandom, adversary.CorruptRandomize)
	proto := func(rt congest.Runtime) {
		views := rt.Shared().([][]TreeView)[rt.ID()]
		payloads := make([][]byte, len(views))
		for j := range views {
			if views[j].Depth == 0 {
				payloads[j] = payload
			}
		}
		got := BroadcastDown(rt, views, payloads, 2, rep)
		good := 0
		for j := range got {
			if bytes.Equal(got[j], payload) {
				good++
			}
		}
		rt.SetOutput(good)
	}
	res := runPacking(t, g, p, adv, proto)
	// Lemma 3.3 shape: all but O(f*eta*(D+1)) trees deliver to every node.
	// f=2, eta=2, D=2 -> at most ~12 failures is the crude bound; demand a
	// clear majority of the 12 trees at every node.
	for i, o := range res.Outputs {
		if o.(int) < 9 {
			t.Fatalf("node %d: only %d/12 trees delivered", i, o)
		}
	}
}

func TestConvergecastUpFaultFree(t *testing.T) {
	n := 8
	g := graph.Clique(n)
	p := treepack.CliqueStars(n)
	// Every node contributes its ID+1 (8-byte); xor-aggregate at the root.
	var want [8]byte
	for v := 0; v < n; v++ {
		w := congest.U64Msg(uint64(v) + 1)
		for i := range want {
			want[i] ^= w[i]
		}
	}
	proto := func(rt congest.Runtime) {
		views := rt.Shared().([][]TreeView)[rt.ID()]
		locals := make([][]byte, len(views))
		for j := range views {
			locals[j] = congest.U64Msg(uint64(rt.ID()) + 1)
		}
		got := ConvergecastUp(rt, views, locals, mergeXor, 2, 3)
		if rt.ID() == graph.NodeID(n-1) {
			good := 0
			for j := range got {
				if bytes.Equal(got[j], want[:]) {
					good++
				}
			}
			rt.SetOutput(good)
		} else {
			rt.SetOutput(-1)
		}
	}
	res := runPacking(t, g, p, nil, proto)
	if got := res.Outputs[n-1].(int); got != n {
		t.Fatalf("root aggregated correctly on %d/%d trees", got, n)
	}
}

func TestConvergecastUnderMobileAdversary(t *testing.T) {
	n := 12
	g := graph.Clique(n)
	p := treepack.CliqueStars(n)
	rep := 7
	var want [8]byte
	for v := 0; v < n; v++ {
		w := congest.U64Msg(uint64(v) + 1)
		for i := range want {
			want[i] ^= w[i]
		}
	}
	adv := adversary.NewMobileByzantine(g, 2, 9, adversary.SelectRandom, adversary.CorruptRandomize)
	proto := func(rt congest.Runtime) {
		views := rt.Shared().([][]TreeView)[rt.ID()]
		locals := make([][]byte, len(views))
		for j := range views {
			locals[j] = congest.U64Msg(uint64(rt.ID()) + 1)
		}
		got := ConvergecastUp(rt, views, locals, mergeXor, 2, rep)
		if rt.ID() == graph.NodeID(n-1) {
			good := 0
			for j := range got {
				if bytes.Equal(got[j], want[:]) {
					good++
				}
			}
			rt.SetOutput(good)
		}
	}
	res := runPacking(t, g, p, adv, proto)
	if got := res.Outputs[n-1].(int); got < 9 {
		t.Fatalf("only %d/12 trees aggregated correctly under f=2", got)
	}
}

// TestRSThreshold verifies the Theorem 3.2-style contract on a single path
// tree: a bounded fraction of corrupted rounds on an edge only delays the
// commit and the broadcast succeeds; owning the edge for (nearly) the whole
// window starves the commit and breaks it.
func TestRSThreshold(t *testing.T) {
	n := 6
	g := graph.Path(n)
	tr := treepack.NewTree(n, 0)
	for v := 1; v < n; v++ {
		tr.Parent[v] = graph.NodeID(v - 1)
	}
	p := &treepack.Packing{Root: 0, Trees: []*treepack.Tree{tr}}
	depth := n - 1
	rep := 5
	payload := []byte("x")

	proto := func(rt congest.Runtime) {
		views := rt.Shared().([][]TreeView)[rt.ID()]
		payloads := make([][]byte, 1)
		if rt.ID() == 0 {
			payloads[0] = payload
		}
		got := BroadcastDown(rt, views, payloads, depth, rep)
		rt.SetOutput(bytes.Equal(got[0], payload))
	}

	// Bounded corruption rate: 2 of every 5 rounds on one edge delays the
	// pipeline but the doubled window absorbs it.
	mkAdv := func(corrupt, outOf int) congest.Adversary {
		var sched [][]graph.Edge
		for r := 0; r < Rounds(depth, rep); r++ {
			if r%outOf < corrupt {
				sched = append(sched, []graph.Edge{graph.NewEdge(2, 3)})
			} else {
				sched = append(sched, nil)
			}
		}
		return &scheduledCorruptor{sched: sched}
	}
	res, err := congest.Run(congest.Config{Graph: g, Seed: 2, Adversary: mkAdv(2, 5), Shared: Views(p)}, proto)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o != true {
			t.Fatalf("below-threshold corruption broke node %d", i)
		}
	}
	// Edge ownership: corrupting (2,3) in every round starves the commit
	// downstream of it.
	res, err = congest.Run(congest.Config{Graph: g, Seed: 2, Adversary: mkAdv(5, 5), Shared: Views(p)}, proto)
	if err != nil {
		t.Fatal(err)
	}
	broken := false
	for i := 3; i < n; i++ {
		if res.Outputs[i] != true {
			broken = true
		}
	}
	if !broken {
		t.Fatal("owned-edge corruption did not break downstream nodes")
	}
}

// scheduledCorruptor randomizes the scheduled edges each round.
type scheduledCorruptor struct {
	sched [][]graph.Edge
}

func (s *scheduledCorruptor) Intercept(round int, tr *congest.RoundTraffic) {
	if round >= len(s.sched) {
		return
	}
	for _, e := range s.sched[round] {
		fwd, bwd := tr.EdgeSlots(e)
		for _, slot := range []int32{fwd, bwd} {
			if m := tr.Get(slot); m != nil {
				c := m.Clone()
				for i := range c {
					c[i] ^= 0xFF
				}
				tr.Set(slot, c)
			}
		}
	}
}

func (s *scheduledCorruptor) PerRoundEdges() int { return 1 }
