package congest

import (
	"math/rand"
	"testing"

	"mobilecongest/internal/graph"
)

// TestEdgeLayoutSlots: every directed edge gets a unique slot consistent
// with the CSR invariants, and non-edges (including out-of-range endpoints)
// resolve to -1.
func TestEdgeLayoutSlots(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(2), graph.Cycle(7), graph.Clique(9),
		graph.Circulant(12, 3), graph.Grid(3, 4), graph.Petersen(),
	}
	for _, g := range graphs {
		l := newEdgeLayout(g)
		if l.slots() != 2*g.M() {
			t.Fatalf("%d slots for %d edges", l.slots(), g.M())
		}
		seen := make(map[int32]bool)
		for u := 0; u < g.N(); u++ {
			from := graph.NodeID(u)
			for _, to := range g.Neighbors(from) {
				s := l.slot(from, to)
				if s < 0 || seen[s] {
					t.Fatalf("slot(%d,%d) = %d (dup=%v)", from, to, s, seen[s])
				}
				seen[s] = true
				if l.dirEdges[s] != (graph.DirEdge{From: from, To: to}) {
					t.Fatalf("dirEdges[%d] = %v, want (%d,%d)", s, l.dirEdges[s], from, to)
				}
				if int(l.undir[s]) != g.EdgeIndex(from, to) {
					t.Fatalf("undir[%d] = %d, want %d", s, l.undir[s], g.EdgeIndex(from, to))
				}
			}
		}
		if len(seen) != l.slots() {
			t.Fatalf("covered %d slots of %d", len(seen), l.slots())
		}
		// Non-edges and wild endpoints.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			u := graph.NodeID(rng.Intn(g.N()*2) - g.N()/2)
			v := graph.NodeID(rng.Intn(g.N()*2) - g.N()/2)
			if int(u) >= 0 && int(u) < g.N() && g.HasEdge(u, v) {
				continue
			}
			if s := l.slot(u, v); s != -1 {
				t.Fatalf("slot(%d,%d) = %d for non-edge", u, v, s)
			}
		}
	}
}

// TestRoundBufferRoundTrip: loadFrom/get/reset preserve the map semantics
// the engines rely on.
func TestRoundBufferRoundTrip(t *testing.T) {
	g := graph.Clique(5)
	l := newEdgeLayout(g)
	b := newRoundBuffer(l)

	tr := Traffic{
		{From: 3, To: 1}: U64Msg(7),
		{From: 0, To: 4}: U64Msg(9),
		{From: 1, To: 3}: {}, // empty-but-present message
	}
	if err := b.loadFrom(tr); err != nil {
		t.Fatal(err)
	}
	if b.len() != 3 {
		t.Fatalf("len = %d, want 3", b.len())
	}
	for de, m := range tr {
		got := b.get(l.slot(de.From, de.To))
		if got == nil || string(got) != string(m) {
			t.Fatalf("edge %v: got %x want %x", de, got, m)
		}
	}

	// Injection on a non-edge is rejected.
	if err := b.loadFrom(Traffic{{From: 0, To: 9}: U64Msg(1)}); err == nil {
		t.Fatal("non-edge load accepted")
	}

	b.reset()
	if b.len() != 0 {
		t.Fatalf("len after reset = %d", b.len())
	}
	for s := range b.refs {
		if b.refs[s] != 0 {
			t.Fatalf("slot %d not cleared", s)
		}
	}
}

// TestRoundBufferCanonicalOrder: touched slots come out in ascending
// (sender, receiver) order regardless of insertion order.
func TestRoundBufferCanonicalOrder(t *testing.T) {
	g := graph.Cycle(6)
	l := newEdgeLayout(g)
	b := newRoundBuffer(l)
	edges := []graph.DirEdge{{From: 5, To: 0}, {From: 2, To: 1}, {From: 0, To: 1}, {From: 3, To: 4}}
	for _, de := range edges {
		b.put(l.slot(de.From, de.To), U64Msg(1))
	}
	b.sortTouched()
	prev := graph.DirEdge{From: -1, To: -1}
	for _, s := range b.touched {
		de := l.dirEdges[s]
		if de.From < prev.From || (de.From == prev.From && de.To <= prev.To) {
			t.Fatalf("order violated: %v after %v", de, prev)
		}
		prev = de
	}
}
