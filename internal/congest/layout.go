package congest

import (
	"fmt"
	"slices"
	"sort"

	"mobilecongest/internal/graph"
)

// The flat traffic representation: instead of allocating a fresh
// map[graph.DirEdge]Msg per round, a run precomputes a dense DirEdge -> slot
// layout from the graph once and moves every round's traffic through
// reusable slot-indexed slabs. Adversaries and observers read the slabs
// through the RoundTraffic and RoundView slot views.

// edgeLayout is the per-run dense indexing of a graph's directed edges, in
// CSR form: the slots of messages leaving node u are the contiguous range
// rowStart[u]..rowStart[u+1], ordered by destination ID (adjacency lists are
// sorted). Slot order is therefore ascending (From, To) — the canonical
// deterministic traffic order shared by every engine and every observer.
type edgeLayout struct {
	g        *graph.Graph
	rowStart []int32         // len n+1; CSR offsets into the slot space
	dirEdges []graph.DirEdge // slot -> directed edge
	undir    []int32         // slot -> index of the undirected edge in g.Edges()
	revSlot  []int32         // slot of (u,v) -> slot of (v,u); delivery fan-in
}

func newEdgeLayout(g *graph.Graph) *edgeLayout {
	n := g.N()
	l := &edgeLayout{g: g, rowStart: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		l.rowStart[u+1] = l.rowStart[u] + int32(g.Degree(graph.NodeID(u)))
	}
	slots := int(l.rowStart[n])
	l.dirEdges = make([]graph.DirEdge, slots)
	l.undir = make([]int32, slots)
	l.revSlot = make([]int32, slots)
	for u := 0; u < n; u++ {
		from := graph.NodeID(u)
		base := l.rowStart[u]
		for j, to := range g.Neighbors(from) {
			s := base + int32(j)
			l.dirEdges[s] = graph.DirEdge{From: from, To: to}
			l.undir[s] = int32(g.EdgeIndex(from, to))
		}
	}
	for s, de := range l.dirEdges {
		l.revSlot[s] = l.slot(de.To, de.From)
	}
	return l
}

// degree returns the out-degree (== in-degree) of u in slots.
func (l *edgeLayout) degree(u graph.NodeID) int32 {
	return l.rowStart[u+1] - l.rowStart[u]
}

// slots returns the number of directed-edge slots (2M).
func (l *edgeLayout) slots() int { return len(l.dirEdges) }

// slot returns the dense index of the directed edge from->to, or -1 when the
// pair is not an edge of the graph (including out-of-range endpoints, which
// adversaries are free to inject).
func (l *edgeLayout) slot(from, to graph.NodeID) int32 {
	if int(from) < 0 || int(from) >= l.g.N() {
		return -1
	}
	nbs := l.g.Neighbors(from)
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= to })
	if i == len(nbs) || nbs[i] != to {
		return -1
	}
	return l.rowStart[from] + int32(i)
}

// roundBuffer holds one round's directed traffic as a packed slot-indexed
// slab: refs[s] is the (chunk, offset, length) view of slot s's payload into
// the round's byte arena (see arena.go), zero when the edge is silent. A run
// reuses the buffer across rounds; reset truncates rather than frees, so the
// per-round cost is clearing the touched refs, not reallocating the round.
//
// Two arenas alternate by round parity: delivered inbox slices resolved in
// round r must survive while round r+1 collects (the PortRuntime contract —
// an inbox is valid until the node's next exchange), so round r+1 appends
// into the other arena and only round r+2 truncates round r's bytes.
type roundBuffer struct {
	layout  *edgeLayout
	refs    []msgRef // slot-indexed packed payload views; 0 = silent
	arenas  [2]msgArena
	parity  int     // index of the arena the current round's refs resolve in
	touched []int32 // occupied slots, insertion-ordered until sortTouched
	sorted  bool
}

func newRoundBuffer(l *edgeLayout) *roundBuffer {
	b := &roundBuffer{layout: l, refs: make([]msgRef, l.slots()), sorted: true}
	b.ensureChunks(1)
	return b
}

// reset clears the buffer for reuse: the touched refs are zeroed
// individually (cheaper than wiping the slab), parity flips, and the now
// current arena is truncated — the previous round's arena stays intact for
// inboxes still being read.
func (b *roundBuffer) reset() {
	for _, s := range b.touched {
		b.refs[s] = 0
	}
	b.touched = b.touched[:0]
	b.sorted = true
	b.parity ^= 1
	b.arenas[b.parity].reset()
}

// discard empties the buffer after a run that unwound by panic in the
// middle of a round, when occupied slots may be missing from touched.
func (b *roundBuffer) discard() {
	clear(b.refs)
	b.touched = b.touched[:0]
}

// ensureChunks sizes both arenas for n concurrent writers (the shard
// engine's shard count; single-shard runs use chunk 0).
func (b *roundBuffer) ensureChunks(n int) {
	b.arenas[0].ensure(n)
	b.arenas[1].ensure(n)
}

// get resolves slot s's payload out of the current round's arena: nil when
// the slot is silent. The bytes are arena-backed and valid until the slot's
// receiver next exchanges; callers must not retain or mutate them.
func (b *roundBuffer) get(s int32) Msg {
	return b.arenas[b.parity].get(b.refs[s])
}

// put records the message m on slot s, copying its bytes into the round
// arena's chunk 0. It serves the sequential writers outside collection (the
// adversary's apply and the map-traffic harness); an occupied slot is
// overwritten and stays tracked once.
func (b *roundBuffer) put(s int32, m Msg) {
	if b.refs[s] == 0 {
		b.touched = append(b.touched, s)
		b.sorted = false
	}
	b.refs[s] = b.arenas[b.parity].put(0, m)
}

// len returns the number of messages in the buffer.
func (b *roundBuffer) len() int { return len(b.touched) }

// sortTouched brings the occupied slots into canonical ascending order.
func (b *roundBuffer) sortTouched() {
	if !b.sorted {
		slices.Sort(b.touched)
		b.sorted = true
	}
}

// loadFrom refills the buffer from a traffic map (the input of the
// free-standing NewRoundTraffic harness), validating every entry against
// the layout. Explicit nil entries are normalized to empty messages so slot
// occupancy mirrors map presence.
func (b *roundBuffer) loadFrom(tr Traffic) error {
	b.reset()
	// The offending edge named in the error must not depend on map order:
	// fold to the smallest invalid edge instead of erroring mid-iteration.
	var badDE graph.DirEdge
	hasBad := false
	for de, m := range tr {
		s := b.layout.slot(de.From, de.To)
		if s < 0 {
			if !hasBad || de.From < badDE.From || (de.From == badDE.From && de.To < badDE.To) {
				badDE, hasBad = de, true
			}
			continue
		}
		if m == nil {
			m = Msg{}
		}
		b.put(s, m)
	}
	if hasBad {
		return fmt.Errorf("congest: adversary injected on non-edge (%d,%d)", badDE.From, badDE.To)
	}
	return nil
}
