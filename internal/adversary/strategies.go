package adversary

import (
	"math/rand"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Selection strategies. All consume the slot-native round view and are
// deterministic given their inputs, so runs are reproducible; per-run
// mutable state lives in the SelectorState, never in the Selector value.

// SelectRandom picks f uniformly random graph edges.
func SelectRandom(st *SelectorState, rng *rand.Rand, _ int, g *graph.Graph, _ *congest.RoundTraffic, f int) []graph.Edge {
	return st.draw.randomEdges(g, f, rng)
}

// SelectBusiest picks the f edges carrying the most payload bytes this
// round — a greedy "hit where it hurts" heuristic that tends to target the
// compiler's control traffic. Loads accumulate into the state's reusable
// per-undirected-edge slice via the layout's slot->edge index, and the top f
// are picked by bounded insertion instead of sorting the whole round, so a
// selection allocates nothing beyond its f-edge result.
func SelectBusiest(st *SelectorState, _ *rand.Rand, _ int, g *graph.Graph, tr *congest.RoundTraffic, f int) []graph.Edge {
	if f <= 0 {
		return nil
	}
	edges := g.Edges()
	load := st.loadFor(len(edges))
	touched := st.loadTouched[:0]
	for s, m := range tr.All() {
		u := tr.UndirIndex(s)
		if load[u] < 0 {
			load[u] = 0
			touched = append(touched, u)
		}
		load[u] += len(m)
	}
	st.loadTouched = touched

	// rank is the legacy total order: load descending, then edge ascending —
	// so the bounded insertion selects exactly what the full sort did.
	rank := func(a, b int32) bool {
		if load[a] != load[b] {
			return load[a] > load[b]
		}
		ea, eb := edges[a], edges[b]
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	}
	sel := st.sel[:0]
	for _, u := range touched {
		if len(sel) == f && !rank(u, sel[f-1]) {
			continue
		}
		// Insertion position by linear scan from the back: f is small (the
		// adversary's edge budget), so this beats a general sort's constants
		// by a wide margin.
		if len(sel) < f {
			sel = append(sel, u)
		} else {
			sel[f-1] = u
		}
		for i := len(sel) - 1; i > 0 && rank(sel[i], sel[i-1]); i-- {
			sel[i], sel[i-1] = sel[i-1], sel[i]
		}
	}
	st.sel = sel

	out := make([]graph.Edge, len(sel))
	for i, u := range sel {
		out[i] = edges[u]
	}
	for _, u := range touched {
		load[u] = -1
	}
	return out
}

// SelectIncident concentrates all f corruptions on edges incident to one
// victim node (the paper's root-targeting worst case for tree protocols).
func SelectIncident(victim graph.NodeID) Selector {
	return func(_ *SelectorState, _ *rand.Rand, _ int, g *graph.Graph, _ *congest.RoundTraffic, f int) []graph.Edge {
		nbs := g.Neighbors(victim)
		edges := make([]graph.Edge, 0, f)
		for _, v := range nbs {
			if len(edges) == f {
				break
			}
			edges = append(edges, graph.NewEdge(victim, v))
		}
		return edges
	}
}

// SelectFixed always returns the given edges (truncated to budget).
func SelectFixed(edges []graph.Edge) Selector {
	return func(_ *SelectorState, _ *rand.Rand, _ int, _ *graph.Graph, _ *congest.RoundTraffic, f int) []graph.Edge {
		if len(edges) > f {
			return edges[:f]
		}
		return edges
	}
}

// SelectRotating sweeps the edge list round-robin, so over time every edge
// gets corrupted — the "virus spreading through the network" pattern that
// motivates the mobile model. The cursor lives in the per-run SelectorState
// (st.Rotation), which the owning adversary zeroes at every run start, so
// this value carries no state between runs or sweep cells.
func SelectRotating(st *SelectorState, _ *rand.Rand, _ int, g *graph.Graph, _ *congest.RoundTraffic, f int) []graph.Edge {
	all := g.Edges()
	if len(all) == 0 {
		return nil
	}
	out := make([]graph.Edge, 0, f)
	for i := 0; i < f && i < len(all); i++ {
		out = append(out, all[(st.Rotation+i)%len(all)])
	}
	st.Rotation = (st.Rotation + f) % len(all)
	return out
}

// Corruption strategies. Those that forge bytes write them into the round
// view's Alloc slab, so a warm run corrupts without allocating.

// CorruptFlip XORs a random non-zero pattern into each present message —
// guaranteed to change the payload.
func CorruptFlip(tr *congest.RoundTraffic, rng *rand.Rand, _ int, _ graph.Edge, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	return flip(tr, rng, fwd), flip(tr, rng, bwd)
}

func flip(tr *congest.RoundTraffic, rng *rand.Rand, m congest.Msg) congest.Msg {
	if len(m) == 0 {
		return m
	}
	out := tr.Alloc(len(m))
	copy(out, m)
	i := rng.Intn(len(out))
	out[i] ^= byte(1 + rng.Intn(255))
	return out
}

// CorruptRandomize replaces each present message with uniform random bytes
// of the same length.
func CorruptRandomize(tr *congest.RoundTraffic, rng *rand.Rand, _ int, _ graph.Edge, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	return randomize(tr, rng, fwd), randomize(tr, rng, bwd)
}

func randomize(tr *congest.RoundTraffic, rng *rand.Rand, m congest.Msg) congest.Msg {
	if len(m) == 0 {
		return m
	}
	out := tr.Alloc(len(m))
	rng.Read(out)
	return out
}

// CorruptDrop deletes both directions (message omission).
func CorruptDrop(_ *congest.RoundTraffic, _ *rand.Rand, _ int, _ graph.Edge, _, _ congest.Msg) (congest.Msg, congest.Msg) {
	return nil, nil
}

// CorruptSwap crosses the two directions, replaying each endpoint's message
// back at the other's peer. The inputs go back as they are: the engine
// copies each into the delivered round, and rewrites neither before then.
func CorruptSwap(_ *congest.RoundTraffic, _ *rand.Rand, _ int, _ graph.Edge, fwd, bwd congest.Msg) (congest.Msg, congest.Msg) {
	return bwd, fwd
}

// CorruptInject forges fixed-pattern messages in both directions even when
// nothing was sent; length 9 avoids colliding with common word sizes. Both
// directions carry the same forged bytes, which the engine copies once per
// direction.
func CorruptInject(tr *congest.RoundTraffic, rng *rand.Rand, _ int, _ graph.Edge, _, _ congest.Msg) (congest.Msg, congest.Msg) {
	forged := tr.Alloc(9)
	rng.Read(forged)
	return forged, forged
}
