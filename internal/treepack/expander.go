package treepack

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/vote"
)

// Distributed expander tree packing (Lemma 3.10 and its padded-round
// byzantine-resilient variant, Section 4.3). Every edge picks a uniform
// colour in [k] (chosen by the higher-ID endpoint and announced to the
// other); each colour class G_i then runs a BFS toward the maximum ID for z
// rounds, orienting parent pointers toward the eventual root n-1. Colours
// whose edges the adversary never touched form spanning trees of depth
// O(log n / phi) w.h.p. (Lemma 3.13/3.14); the output is a weak packing.

// ExpanderResult is the per-node output: parent per colour (-1 = none).
type ExpanderResult struct {
	Parent []graph.NodeID
}

// ExpanderPacking returns the fault-free distributed packing protocol with
// k colours and z BFS rounds. Total rounds: 1 + z + 1.
func ExpanderPacking(k, z int) congest.Protocol {
	return expanderProtocol(k, z, 1)
}

// ExpanderPackingPadded is the byzantine-tolerant variant: every logical
// round is repeated pad times and receivers take per-neighbour majority —
// the padded-round scheme of Theorem 4.12's first phase. Total rounds:
// (1 + z + 1) * pad.
func ExpanderPackingPadded(k, z, pad int) congest.Protocol {
	return expanderProtocol(k, z, pad)
}

func expanderProtocol(k, z, pad int) congest.Protocol {
	return func(rt congest.Runtime) {
		deg := rt.Degree()
		// Logical round 1: higher-ID endpoint picks each edge's colour.
		myColor := make([]uint64, deg) // proposals for edges I own, by port
		mine := make([]bool, deg)
		for p := 0; p < deg; p++ {
			if v := rt.Neighbor(p); rt.ID() > v {
				myColor[p] = uint64(rt.Rand().Intn(k))
				mine[p] = true
			}
		}
		buildOut := func(out []congest.Msg) {
			for p := 0; p < deg; p++ {
				if mine[p] {
					out[p] = congest.U64Msg(myColor[p])
				} else {
					out[p] = congest.U64Msg(0) // keep traffic volume symmetric
				}
			}
		}
		colorIn := paddedExchange(rt, buildOut, pad)
		color := make([]int, deg) // final colour per incident edge, by port
		for p := 0; p < deg; p++ {
			switch {
			case mine[p]:
				color[p] = int(myColor[p] % uint64(k))
			case colorIn[p] != nil:
				color[p] = int(congest.U64(colorIn[p]) % uint64(k))
			default:
				color[p] = -1 // no colour heard; edge unusable
			}
		}
		// BFS-to-max-ID per colour. I track best ID seen and parent per
		// colour; each logical round sends my best per colour to the
		// neighbours sharing that colour. Wire format packs one u64 per
		// incident edge: the best ID for that edge's colour.
		best := make([]uint64, k)
		parent := make([]graph.NodeID, k)
		for i := 0; i < k; i++ {
			best[i] = uint64(rt.ID()) + 1 // +1 so 0 means "nothing"
			parent[i] = -1
		}
		for round := 0; round < z; round++ {
			buildBFS := func(out []congest.Msg) {
				for p := 0; p < deg; p++ {
					c := color[p]
					if c < 0 {
						out[p] = congest.U64Msg(0)
						continue
					}
					out[p] = congest.U64Msg(best[c])
				}
			}
			in := paddedExchange(rt, buildBFS, pad)
			for p := 0; p < deg; p++ {
				c := color[p]
				if c < 0 || in[p] == nil {
					continue
				}
				val := congest.U64(in[p])
				if val > best[c] && val <= uint64(rt.N()) {
					best[c] = val
					parent[c] = rt.Neighbor(p)
				}
			}
		}
		// Final logical round: notify parents so orientations are mutual
		// (per the paper); the parent array itself is the result we keep.
		buildNotify := func(out []congest.Msg) {
			for p := 0; p < deg; p++ {
				var mask uint64
				for c := 0; c < k && c < 64; c++ {
					if parent[c] == rt.Neighbor(p) {
						mask |= 1 << uint(c)
					}
				}
				out[p] = congest.U64Msg(mask)
			}
		}
		paddedExchange(rt, buildNotify, pad)
		rt.SetOutput(ExpanderResult{Parent: parent})
	}
}

// paddedExchange builds and sends the same port outbox pad times and returns
// the per-port majority message (nil when no majority).
func paddedExchange(rt congest.Runtime, build func(out []congest.Msg), pad int) []congest.Msg {
	if pad <= 1 {
		out := rt.OutBuf()
		build(out)
		return rt.ExchangePorts(out)
	}
	counts := make([]map[string]int, rt.Degree())
	for r := 0; r < pad; r++ {
		out := rt.OutBuf()
		build(out)
		in := rt.ExchangePorts(out)
		for p, m := range in {
			if m == nil {
				continue
			}
			if counts[p] == nil {
				counts[p] = make(map[string]int)
			}
			counts[p][string(m)]++
		}
	}
	res := make([]congest.Msg, rt.Degree())
	for p, cs := range counts {
		bestMsg, bestCnt := vote.Winner(cs)
		if bestCnt*2 > pad {
			res[p] = congest.Msg(bestMsg)
		}
	}
	return res
}

// AssemblePacking collects the per-node ExpanderResult outputs of a run into
// a weak packing rooted at n-1.
func AssemblePacking(n, k int, outputs []any) *Packing {
	maps := make([][]graph.NodeID, k)
	for j := 0; j < k; j++ {
		maps[j] = make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			maps[j][v] = -1
		}
	}
	for v, o := range outputs {
		res, ok := o.(ExpanderResult)
		if !ok {
			continue
		}
		for j := 0; j < k && j < len(res.Parent); j++ {
			maps[j][v] = res.Parent[j]
		}
	}
	return FromParentMaps(graph.NodeID(n-1), maps)
}

// ExpanderRounds returns the round count of the (padded) packing protocol.
func ExpanderRounds(z, pad int) int { return (1 + z + 1) * pad }
