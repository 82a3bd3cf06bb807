package algorithms

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Cole-Vishkin 3-coloring of a directed ring (here: a cycle graph where
// each node's successor is its higher-ID neighbour, wrapping at the top).
// Starting from colours = IDs, each iteration compares a node's colour bits
// with its predecessor's and shrinks the colour space from b bits to
// ~log2(b)+1 bits; O(log* n) iterations reach 6 colours, and three final
// shift-down rounds reduce to 3. A classic LOCAL/CONGEST payload whose
// correctness (proper colouring) is easy to verify and sensitive to any
// corrupted message.

// ColorRingResult is the per-node output.
type ColorRingResult struct {
	Color int
}

// ColorRing runs Cole-Vishkin on a cycle for the given iteration count
// (use ColorRingIterations(n)), then the 6-to-3 shift-down. All nodes run
// the same fixed schedule.
func ColorRing(iterations int) congest.Protocol {
	return func(rt congest.Runtime) {
		pred, succ := ringNeighbors(rt)
		predPort, succPort := rt.Port(pred), rt.Port(succ)
		color := uint64(rt.ID())
		buf := make(congest.Msg, 0, 8)
		// Phase 1: Cole-Vishkin iterations. Each round: send my colour to
		// my successor; combine with predecessor's.
		for it := 0; it < iterations; it++ {
			out := rt.OutBuf()
			out[succPort] = congest.PutU64(buf[:0], color)
			in := rt.ExchangePorts(out)
			pc := color // self-fallback keeps the protocol total under corruption
			if m := in[predPort]; m != nil {
				pc = congest.U64(m)
			}
			color = coleVishkinStep(pc, color)
		}
		// Phase 2: shift-down from 6 to 3 colours: for c = 5, 4, 3: nodes
		// with that colour re-colour to the smallest colour unused by both
		// ring neighbours. Each step needs both neighbours' colours.
		for c := uint64(5); c >= 3; c-- {
			out := rt.OutBuf()
			m := congest.PutU64(buf[:0], color)
			out[succPort] = m
			out[predPort] = m
			in := rt.ExchangePorts(out)
			var nb []uint64
			if m := in[predPort]; m != nil {
				nb = append(nb, congest.U64(m))
			}
			if m := in[succPort]; m != nil && succPort != predPort {
				nb = append(nb, congest.U64(m))
			}
			if color == c {
				for cand := uint64(0); cand < 3; cand++ {
					used := false
					for _, x := range nb {
						if x == cand {
							used = true
						}
					}
					if !used {
						color = cand
						break
					}
				}
			}
		}
		rt.SetOutput(ColorRingResult{Color: int(color)})
	}
}

// coleVishkinStep computes the new colour from the predecessor's and own
// colour: the index of the lowest differing bit, shifted, plus that bit.
func coleVishkinStep(pred, own uint64) uint64 {
	diff := pred ^ own
	if diff == 0 {
		// Corrupted input made the chain improper; pick a deterministic
		// escape that keeps the protocol running.
		diff = 1
	}
	i := uint64(0)
	for diff&1 == 0 {
		diff >>= 1
		i++
	}
	bit := (own >> i) & 1
	return i<<1 | bit
}

// ColorRingIterations returns enough Cole-Vishkin iterations to reach 6
// colours from b-bit IDs (log* with slack; 4 suffices for any n < 2^64).
func ColorRingIterations(n int) int { return 4 }

// ColorRingRounds is the protocol's fixed round count.
func ColorRingRounds(n int) int { return ColorRingIterations(n) + 3 }

// ringNeighbors orients the cycle: successor = higher neighbour (wrapping),
// predecessor = the other one.
func ringNeighbors(rt congest.Runtime) (pred, succ graph.NodeID) {
	succ = successor(rt)
	for _, v := range rt.Neighbors() {
		if v != succ {
			pred = v
		}
	}
	if len(rt.Neighbors()) == 1 {
		pred = succ
	}
	return pred, succ
}

// VerifyRingColoring checks outputs form a proper <=3-colouring of g.
func VerifyRingColoring(g *graph.Graph, outputs []any) bool {
	colors := make([]int, g.N())
	for i, o := range outputs {
		r, ok := o.(ColorRingResult)
		if !ok || r.Color < 0 || r.Color > 2 {
			return false
		}
		colors[i] = r.Color
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			return false
		}
	}
	return true
}
