package congest

import (
	"bytes"
	"fmt"
	"iter"
	"sort"

	"mobilecongest/internal/graph"
)

// RoundTraffic is the slot-native view of one round's traffic handed to the
// Adversary. It exposes the run's flat edge layout directly: every directed
// edge of the graph has a fixed slot (ascending sender, then receiver — the
// same canonical order observers see), and the adversary reads the collected
// messages and writes its corruptions by slot. Writes go to a reusable
// overlay, never to the collection buffer itself, so the engine can diff the
// overlay against the pristine round for exact budget accounting before
// folding it into the delivered traffic.
//
// A RoundTraffic is only valid during the Intercept call it is handed to;
// the engine reuses it (and everything it hands out) on the next round.
type RoundTraffic struct {
	buf *roundBuffer // pristine collection buffer for the round

	// The adversary's write overlay: mod[s] is the override for slot s when
	// its dirtyBits bit is set; dirty lists the overridden slots.
	mod       []Msg
	dirtyBits []uint64
	dirty     []int32

	// invalid records non-edge injections from SetEdge; they count against
	// the budget and then abort the round.
	invalid []nonEdgeWrite

	// settle/apply scratch, reused across rounds.
	changed   []int32      // dirty slots whose override actually differs
	undirMark []bool       // per undirected edge: already counted this round
	undirList []int32      // touched undirected edge indices, insertion order
	edgesOut  []graph.Edge // sorted touched edges handed to the round view
	keep      []bool       // settle verdict per dirty index: the override differs
}

// nonEdgeWrite is one SetEdge injection on a pair that is not an edge.
type nonEdgeWrite struct {
	de graph.DirEdge
	m  Msg
}

func newRoundTraffic(l *edgeLayout) *RoundTraffic {
	return &RoundTraffic{
		mod:       make([]Msg, l.slots()),
		dirtyBits: make([]uint64, (l.slots()+63)/64),
		undirMark: make([]bool, l.g.M()),
	}
}

// NewRoundTraffic builds a free-standing slot view holding the given traffic
// over g — the harness for exercising an Adversary outside an engine (unit
// tests, micro-benchmarks). Inside a run the engine provides the view; this
// constructor is never on the hot path. It rejects traffic on non-edges.
func NewRoundTraffic(g *graph.Graph, tr Traffic) (*RoundTraffic, error) {
	l := newEdgeLayout(g)
	b := newRoundBuffer(l)
	if err := b.loadFrom(tr); err != nil {
		return nil, err
	}
	rt := newRoundTraffic(l)
	rt.begin(b)
	return rt, nil
}

// Delivered returns the view's current traffic — the collected round with
// the adversary's Set overrides applied, plus any SetEdge injections on
// non-edges (which would abort a run) — as a fresh map. It is a test helper
// for free-standing views (NewRoundTraffic); inside a run the engine folds
// overrides into the delivered round itself.
func (t *RoundTraffic) Delivered() Traffic {
	out := make(Traffic, t.buf.len())
	for s := 0; s < t.Slots(); s++ {
		if m := t.Get(int32(s)); m != nil {
			out[t.DirEdge(int32(s))] = m
		}
	}
	for _, w := range t.invalid {
		out[w.de] = w.m
	}
	return out
}

// begin attaches the view to the round's collection buffer and clears the
// previous round's overlay.
func (t *RoundTraffic) begin(b *roundBuffer) {
	t.buf = b
	for _, s := range t.dirty {
		t.mod[s] = nil
		t.dirtyBits[s>>6] &^= 1 << uint(s&63)
	}
	t.dirty = t.dirty[:0]
	clear(t.invalid)
	t.invalid = t.invalid[:0]
}

// Graph returns the run's topology.
func (t *RoundTraffic) Graph() *graph.Graph { return t.buf.layout.g }

// Slots returns the number of directed-edge slots (2M).
func (t *RoundTraffic) Slots() int { return len(t.mod) }

// Len returns the number of directed messages the nodes sent this round.
func (t *RoundTraffic) Len() int { return t.buf.len() }

// Slot returns the slot of the directed edge from->to, or -1 when the pair
// is not an edge of the graph.
func (t *RoundTraffic) Slot(from, to graph.NodeID) int32 {
	return t.buf.layout.slot(from, to)
}

// EdgeSlots returns the two slots of an undirected edge: U->V, then V->U.
// Both are -1 when e is not an edge of the graph.
func (t *RoundTraffic) EdgeSlots(e graph.Edge) (fwd, bwd int32) {
	l := t.buf.layout
	return l.slot(e.U, e.V), l.slot(e.V, e.U)
}

// DirEdge returns the directed edge occupying slot s.
func (t *RoundTraffic) DirEdge(s int32) graph.DirEdge { return t.buf.layout.dirEdges[s] }

// UndirIndex returns the index of slot s's undirected edge in Graph().Edges()
// — the key for per-edge accumulators (see adversary.SelectBusiest).
func (t *RoundTraffic) UndirIndex(s int32) int32 { return t.buf.layout.undir[s] }

// Get returns the message currently on slot s: the adversary's own override
// if it has Set the slot this round, otherwise the message the sender
// emitted. nil means the edge is silent; a non-nil empty Msg is a present,
// empty message. Out-of-range slots (including -1 from Slot on a non-edge)
// read as silent. The returned bytes are shared — do not mutate them.
func (t *RoundTraffic) Get(s int32) Msg {
	if s < 0 || int(s) >= len(t.mod) {
		return nil
	}
	if t.dirtyBits[s>>6]&(1<<uint(s&63)) != 0 {
		return t.mod[s]
	}
	return t.buf.get(s)
}

// Set overrides the message delivered on slot s this round: a corruption
// (non-nil m), an injection on a silent edge, or a drop (nil m). Setting a
// slot back to a value byte-identical with the sender's message costs no
// budget — the engine diffs overrides against the collected round, so only
// real differences count as touched edges. Set panics on an invalid slot;
// slots come from Slot, EdgeSlots, or All.
func (t *RoundTraffic) Set(s int32, m Msg) {
	if s < 0 || int(s) >= len(t.mod) {
		panic(fmt.Sprintf("congest: RoundTraffic.Set on invalid slot %d", s))
	}
	if t.dirtyBits[s>>6]&(1<<uint(s&63)) == 0 {
		t.dirtyBits[s>>6] |= 1 << uint(s&63)
		t.dirty = append(t.dirty, s)
	}
	t.mod[s] = m
}

// SetEdge is Set addressed by directed edge instead of slot. When de is not
// an edge of the graph, a non-nil m is recorded as a non-edge injection —
// it counts against the round's budget and then aborts the run with an
// "injected on non-edge" error (a nil m on a non-edge is a no-op).
// Adversaries that resolve slots themselves use Set; SetEdge is for
// edge-addressed writes whose edges may not be validated (e.g. user-supplied
// schedules).
func (t *RoundTraffic) SetEdge(de graph.DirEdge, m Msg) {
	if s := t.buf.layout.slot(de.From, de.To); s >= 0 {
		t.Set(s, m)
		return
	}
	if m != nil {
		t.injectInvalid(de, m)
	}
}

// All iterates the slots carrying a message in the round's collected
// (pre-adversary) traffic, in canonical ascending (sender, receiver) order.
// The adversary's own Set overrides are not reflected here — read them back
// with Get.
func (t *RoundTraffic) All() iter.Seq2[int32, Msg] {
	t.buf.sortTouched()
	return func(yield func(int32, Msg) bool) {
		for _, s := range t.buf.touched {
			if !yield(s, t.buf.get(s)) {
				return
			}
		}
	}
}

// injectInvalid records a non-edge injection from SetEdge. It is
// budget-accounted like any touched edge and then aborts the round after the
// budget verdict.
func (t *RoundTraffic) injectInvalid(de graph.DirEdge, m Msg) {
	t.invalid = append(t.invalid, nonEdgeWrite{de, m})
}

// parallelSettleMin is the dirty-set size below which the chunked overlay
// diff is not worth the pool barrier.
const parallelSettleMin = 32

// settle diffs the adversary's overlay against the collected round. It
// returns the touched undirected edges in sorted order (the budget unit and
// the observers' Corrupted view) and, when the adversary injected on a
// non-edge, the error to abort the round with — after the caller's budget
// verdict. The returned slice is reused and valid until the next round.
//
// The per-slot byte comparisons — the O(dirty · |msg|) part — fill a
// verdict per dirty slot, chunked over the shard engine's pool when it hands
// one in and the dirty set is large. One fold then consumes the verdicts in
// dirty order, so the result is byte-identical regardless of pool.
func (t *RoundTraffic) settle(pool *shardPool) ([]graph.Edge, error) {
	t.changed = t.changed[:0]
	t.undirList = t.undirList[:0]
	nd := len(t.dirty)
	if cap(t.keep) < nd {
		t.keep = make([]bool, nd)
	}
	t.keep = t.keep[:nd]
	if pool != nil && pool.size > 0 && nd >= parallelSettleMin {
		shards := pool.shards()
		pool.run(func(k int) { t.judge(nd*k/shards, nd*(k+1)/shards) })
	} else {
		t.judge(0, nd)
	}
	for i, s := range t.dirty {
		if !t.keep[i] {
			continue
		}
		t.changed = append(t.changed, s)
		u := t.buf.layout.undir[s]
		if !t.undirMark[u] {
			t.undirMark[u] = true
			t.undirList = append(t.undirList, u)
		}
	}
	edges := t.edgesOut[:0]
	allEdges := t.buf.layout.g.Edges()
	for _, u := range t.undirList {
		edges = append(edges, allEdges[u])
		t.undirMark[u] = false
	}
	var err error
	if len(t.invalid) > 0 {
		// Non-edges can never collide with graph edges, so deduplication is
		// only among the (few) invalid injections themselves. The reported
		// offender is the smallest, keeping the error deterministic.
		report := t.invalid[0].de
		for _, w := range t.invalid {
			de := w.de
			if de.From < report.From || (de.From == report.From && de.To < report.To) {
				report = de
			}
			e := de.Undirected()
			dup := false
			for _, have := range edges[len(t.undirList):] {
				if have == e {
					dup = true
					break
				}
			}
			if !dup {
				edges = append(edges, e)
			}
		}
		err = fmt.Errorf("congest: adversary injected on non-edge (%d,%d)", report.From, report.To)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	t.edgesOut = edges
	if len(edges) == 0 {
		return nil, err
	}
	return edges, err
}

// judge sets the verdict of the dirty slots with index in [lo, hi): whether
// the override differs from the collected message.
func (t *RoundTraffic) judge(lo, hi int) {
	for i := lo; i < hi; i++ {
		s := t.dirty[i]
		t.keep[i] = !msgSame(t.buf.get(s), t.mod[s])
	}
}

// apply folds the settled overlay into the round buffer, which becomes the
// delivered round. Override payloads are copied into the round arena — the
// adversary keeps ownership of the slices it Set. Must follow settle (it
// consumes the changed list).
func (t *RoundTraffic) apply() {
	if len(t.changed) == 0 {
		return
	}
	b := t.buf
	dropped := false
	for _, s := range t.changed {
		if m := t.mod[s]; m == nil {
			b.refs[s] = 0
			dropped = true
		} else {
			b.put(s, m)
		}
	}
	if dropped {
		// Compact the occupancy list in place; filtering preserves order, so
		// the sorted flag stays valid.
		kept := b.touched[:0]
		for _, s := range b.touched {
			if b.refs[s] != 0 {
				kept = append(kept, s)
			}
		}
		b.touched = kept
	}
}

// msgSame reports whether two messages are identical including presence:
// nil (silent edge) differs from a present empty message.
func msgSame(a, b Msg) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return bytes.Equal(a, b)
}
