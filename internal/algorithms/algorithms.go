// Package algorithms provides the fault-free CONGEST payload algorithms the
// compilers are exercised on. Every protocol runs a fixed, globally known
// number of rounds (exchanging on every edge each round where needed), which
// is the synchrony discipline the paper's round-by-round simulations assume.
//
// All protocols here are port-native: they exchange through
// congest.Runtime.ExchangePorts, moving each round through the runtime's
// reusable port buffers instead of allocating outbox/inbox maps.
// Each node encodes every round's payload into one buffer it allocates once
// per run and sends that buffer on all of its ports: ExchangePorts copies
// each sent payload before it returns, so the node may overwrite the buffer
// next round, and a run allocates no message per node per round.
package algorithms

import (
	"math/rand"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// SumInputs generates canonical SumToRoot inputs: node u holds one 8-byte
// uint64 in [1, 1000] drawn deterministically from seed. The second return
// value is the global sum — the protocol's expected output at every node —
// so callers (the protocol registry, tests) can verify end-to-end
// correctness without re-decoding the inputs.
func SumInputs(n int, seed int64) ([][]byte, uint64) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]byte, n)
	var total uint64
	for u := 0; u < n; u++ {
		v := 1 + uint64(rng.Intn(1000))
		total += v
		inputs[u] = congest.PutU64(nil, v)
	}
	return inputs, total
}

// FloodMax floods the maximum node ID for the given number of rounds; with
// rounds >= diameter every node outputs n-1. This is the leader-election
// payload.
func FloodMax(rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		best := uint64(rt.ID())
		buf := make(congest.Msg, 0, 8)
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], best)
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			for _, mm := range in {
				if mm == nil {
					continue
				}
				if v := congest.U64(mm); v > best {
					best = v
				}
			}
		}
		rt.SetOutput(best)
	}
}

// Broadcast floods a value held by root to all nodes within the given number
// of rounds (>= diameter for full coverage). Nodes without the value yet
// send an explicit zero placeholder so traffic is input-independent in
// volume; value 0 is reserved as "none". A node hearing several distinct
// nonzero values in one round (possible only under corruption) adopts the
// smallest, so the protocol stays deterministic regardless of inbox order.
func Broadcast(root graph.NodeID, value uint64, rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		var have uint64
		if rt.ID() == root {
			have = value
		}
		buf := make(congest.Msg, 0, 8)
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], have)
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			if have == 0 {
				for _, mm := range in {
					if mm == nil {
						continue
					}
					if v := congest.U64(mm); v != 0 && (have == 0 || v < have) {
						have = v
					}
				}
			}
		}
		rt.SetOutput(have)
	}
}

// BroadcastInput is Broadcast but the value comes from the root's Input()
// (first 8 bytes) — used by the secure compilers whose experiments vary the
// input to test indistinguishability. Like Broadcast, it folds each round's
// inbox order-insensitively (smallest nonzero wins) so corrupted runs stay
// deterministic.
func BroadcastInput(root graph.NodeID, rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		var have uint64
		if rt.ID() == root {
			have = congest.U64(rt.Input())
		}
		buf := make(congest.Msg, 0, 8)
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], have)
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			if have == 0 {
				for _, mm := range in {
					if mm == nil {
						continue
					}
					if v := congest.U64(mm); v != 0 && (have == 0 || v < have) {
						have = v
					}
				}
			}
		}
		rt.SetOutput(have)
	}
}

// BFSResult is the per-node output of the BFS tree protocol.
type BFSResult struct {
	Dist   int
	Parent graph.NodeID
}

// BFS builds a breadth-first tree rooted at root in the given number of
// rounds (>= eccentricity of root). Each node outputs its distance and
// parent. Wire format: distance+1 (so 0 means "unreached").
func BFS(root graph.NodeID, rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		dist := -1
		parent := graph.NodeID(-1)
		if rt.ID() == root {
			dist = 0
			parent = root
		}
		buf := make(congest.Msg, 0, 8)
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], uint64(dist+1))
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			for p, mm := range in {
				if mm == nil {
					continue
				}
				from := rt.Neighbor(p)
				d := int(congest.U64(mm))
				if d > 0 && (dist < 0 || d < dist+1) { // neighbour at distance d-1
					if dist < 0 || d-1+1 < dist {
						dist = d
						parent = from
					}
				}
			}
		}
		rt.SetOutput(BFSResult{Dist: dist, Parent: parent})
	}
}

// SumToRoot aggregates the sum of all node inputs (first 8 bytes each) to
// the root over a BFS tree built on the fly, then broadcasts the total back;
// every node outputs the global sum. The protocol runs 3*radius rounds:
// radius to build the tree, radius for convergecast, radius for downcast —
// executed as a single fixed schedule so all nodes stay in lock-step.
func SumToRoot(root graph.NodeID, radius int) congest.Protocol {
	return func(rt congest.Runtime) {
		myVal := congest.U64(rt.Input())
		buf := make(congest.Msg, 0, 8)
		// Phase 1: BFS layers.
		dist := -1
		parent := graph.NodeID(-1)
		if rt.ID() == root {
			dist = 0
			parent = root
		}
		for r := 0; r < radius; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], uint64(dist+1))
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			for p, mm := range in {
				if mm == nil {
					continue
				}
				d := int(congest.U64(mm))
				if d > 0 && (dist < 0 || d < dist) {
					dist = d
					parent = rt.Neighbor(p)
				}
			}
		}
		// Phase 2: convergecast. A node at distance d sends its subtree sum
		// at round radius-d; it accumulates child contributions first.
		acc := myVal
		for r := 0; r < radius; r++ {
			out := rt.OutBuf()
			if dist > 0 && r == radius-dist {
				if p := rt.Port(parent); p >= 0 {
					out[p] = congest.PutU64(buf[:0], acc)
				}
			}
			in := rt.ExchangePorts(out)
			for p, mm := range in {
				if mm == nil {
					continue
				}
				if from := rt.Neighbor(p); from != parent || rt.ID() == root {
					acc += congest.U64(mm)
				}
				// Late BFS ties can make two nodes claim each other; parent
				// messages are ignored in convergecast.
			}
		}
		// Phase 3: downcast the total.
		var total uint64
		if rt.ID() == root {
			total = acc
		}
		for r := 0; r < radius; r++ {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], total)
			for p := range out {
				out[p] = m
			}
			in := rt.ExchangePorts(out)
			if total == 0 && parent >= 0 {
				if p := rt.Port(parent); p >= 0 && in[p] != nil {
					total = congest.U64(in[p])
				}
			}
		}
		rt.SetOutput(total)
	}
}

// TokenRing circulates a token around a cycle-structured neighbourhood: each
// node forwards the received token XOR its ID to its successor (the
// neighbour with the next-higher ID, wrapping). It is a deliberately
// order-sensitive payload: one corrupted round changes every subsequent
// value, making it a sharp correctness probe for the byzantine compilers.
func TokenRing(rounds int) congest.Protocol {
	return func(rt congest.Runtime) {
		succPort := rt.Port(successor(rt))
		token := uint64(rt.ID()) + 1
		var trace uint64
		buf := make(congest.Msg, 0, 8)
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			out[succPort] = congest.PutU64(buf[:0], token)
			in := rt.ExchangePorts(out)
			for _, mm := range in {
				if mm == nil {
					continue
				}
				token = congest.U64(mm) ^ (uint64(rt.ID()) + 1)
			}
			trace = trace*31 + token
		}
		rt.SetOutput(trace)
	}
}

func successor(rt congest.Runtime) graph.NodeID {
	nbs := rt.Neighbors()
	// Smallest neighbour ID greater than mine, else the smallest overall.
	best := graph.NodeID(-1)
	for _, v := range nbs {
		if v > rt.ID() && (best < 0 || v < best) {
			best = v
		}
	}
	if best >= 0 {
		return best
	}
	min := nbs[0]
	for _, v := range nbs {
		if v < min {
			min = v
		}
	}
	return min
}
