package treepack

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Distributed low-depth tree packing (Appendix C). The paper iterates a
// distributed min-cost shallow spanning tree subroutine under exponentially
// load-weighted costs. This file implements that loop as a CONGEST
// protocol: each iteration grows one spanning tree by distributed Prim —
// the in-tree fragment floods to agree on its cheapest outgoing edge
// (cost = 3^load, so loaded edges are avoided) and attaches the outside
// endpoint, whose parent is the inside endpoint, so parent pointers are
// correct by construction and no GHS-style re-rooting is needed. Each node
// tracks the load of its incident edges locally (it has seen every tree it
// joined), the distributed analogue of the multiplicative-weights loop of
// Theorem C.2. Round cost O(k * n * flood) — inside the paper's
// Õ(k·D_TP²) budget for the moderate sizes the simulator targets.

// DistPackingResult is the per-node output: parent per packed tree (-1 at
// the root).
type DistPackingResult struct {
	Parent []graph.NodeID
}

// DistributedGreedyPacking packs k spanning trees rooted at node n-1, one
// per outer iteration, each grown by weighted distributed Prim with
// per-node local load counters. flood bounds the intra-fragment flood
// length per join step (>= n always suffices). Fault-free protocol (the
// paper computes general-graph packings in a trusted preprocessing phase).
func DistributedGreedyPacking(k, flood int) congest.Protocol {
	return func(rt congest.Runtime) {
		load := make([]int, rt.Degree()) // per-port local edge load
		parents := make([]graph.NodeID, 0, k)
		for iter := 0; iter < k; iter++ {
			parent := buildTreePrim(rt, load, flood)
			parents = append(parents, parent)
			// Count the tree edge's load on both endpoints.
			out := rt.OutBuf()
			if parent >= 0 {
				pp := rt.Port(parent)
				load[pp]++
				out[pp] = congest.U64Msg(1)
			}
			in := rt.ExchangePorts(out)
			for p, m := range in {
				if m != nil && congest.U64(m) == 1 {
					load[p]++
				}
			}
		}
		rt.SetOutput(DistPackingResult{Parent: parents})
	}
}

// weightOf prices an edge by its current local load (3^load keeps reuse
// strictly worse than detours, mirroring the centralized packer).
func weightOf(load int) uint64 {
	w := uint64(1)
	for i := 0; i < load && i < 20; i++ {
		w *= 3
	}
	return w
}

// noCand is the "no candidate" sentinel weight.
const noCand = ^uint64(0)

// buildTreePrim grows one spanning tree and returns this node's parent
// (-1 for the root, node n-1). Each of the n-1 join steps: (1) exchange
// in-tree flags, (2) flood the fragment's cheapest outgoing edge, (3) the
// winning inside endpoint invites the outside endpoint, which joins.
func buildTreePrim(rt congest.Runtime, load []int, flood int) graph.NodeID {
	me := rt.ID()
	deg := rt.Degree()
	root := graph.NodeID(rt.N() - 1)
	inTree := me == root
	parent := graph.NodeID(-1)
	nbIn := make([]bool, deg)

	for step := 0; step < rt.N()-1; step++ {
		// Round 1: share in-tree status.
		flag := uint64(0)
		if inTree {
			flag = 1
		}
		out := rt.OutBuf()
		word := congest.U64Msg(flag)
		for p := range out {
			out[p] = word
		}
		in := rt.ExchangePorts(out)
		for p := range nbIn {
			nbIn[p] = in[p] != nil && congest.U64(in[p]) == 1
		}
		// Local candidate: my cheapest edge to an outside neighbour.
		bestW, bestA, bestB := noCand, graph.NodeID(-1), graph.NodeID(-1)
		if inTree {
			for p := 0; p < deg; p++ {
				if nbIn[p] {
					continue
				}
				w := weightOf(load[p])
				if better(w, me, rt.Neighbor(p), bestW, bestA, bestB) {
					bestW, bestA, bestB = w, me, rt.Neighbor(p)
				}
			}
		}
		// Flood the fragment minimum over inside-inside edges (the inside
		// subgraph is connected: it contains the tree built so far).
		for fr := 0; fr < flood; fr++ {
			out := rt.OutBuf()
			if inTree {
				enc := encodeCand(bestW, bestA, bestB)
				for p := 0; p < deg; p++ {
					if nbIn[p] {
						out[p] = enc
					}
				}
			}
			in := rt.ExchangePorts(out)
			if !inTree {
				continue
			}
			for p := 0; p < deg; p++ {
				if !nbIn[p] || in[p] == nil {
					continue
				}
				w, a, b := decodeCand(in[p])
				if better(w, a, b, bestW, bestA, bestB) {
					bestW, bestA, bestB = w, a, b
				}
			}
		}
		// Round 3: the winning inside endpoint invites; the invited node
		// joins with the inviter as parent.
		out = rt.OutBuf()
		if inTree && bestA == me && bestB >= 0 {
			if bp := rt.Port(bestB); bp >= 0 {
				out[bp] = congest.U64Msg(0x4A4F494E) // "JOIN"
			} else {
				// A corrupted flood candidate can name a non-neighbor; abort
				// with the canonical error, like the map outbox used to (and
				// never fall through desynced if a wrapper tolerates it).
				//lint:ignore portnative deliberate abort path: the map Exchange is the canonical way to trigger the engine's non-neighbor error
				rt.Exchange(map[graph.NodeID]congest.Msg{bestB: congest.U64Msg(0x4A4F494E)})
				panic("treepack: invited join target is not adjacent")
			}
		}
		in = rt.ExchangePorts(out)
		if !inTree {
			for p, m := range in {
				if m != nil && congest.U64(m) == 0x4A4F494E {
					inTree = true
					parent = rt.Neighbor(p)
					break
				}
			}
		}
	}
	return parent
}

// better orders candidates by (weight, canonical edge) with -1 meaning "no
// candidate".
func better(w uint64, a, b graph.NodeID, curW uint64, curA, curB graph.NodeID) bool {
	if a < 0 || b < 0 {
		return false
	}
	if curA < 0 || curB < 0 {
		return true
	}
	if w != curW {
		return w < curW
	}
	xa, xb := canonPair(a, b)
	ya, yb := canonPair(curA, curB)
	if xa != ya {
		return xa < ya
	}
	return xb < yb
}

func canonPair(a, b graph.NodeID) (graph.NodeID, graph.NodeID) {
	if a > b {
		return b, a
	}
	return a, b
}

func encodeCand(w uint64, a, b graph.NodeID) congest.Msg {
	m := congest.PutU64(nil, w)
	m = congest.PutU32(m, uint32(a))
	m = congest.PutU32(m, uint32(b))
	return m
}

func decodeCand(m congest.Msg) (uint64, graph.NodeID, graph.NodeID) {
	if len(m) < 16 {
		return noCand, -1, -1
	}
	return congest.U64(m), graph.NodeID(int32(congest.U32(m[8:]))), graph.NodeID(int32(congest.U32(m[12:])))
}

// DistPackingRounds returns the protocol's fixed round count for an n-node
// graph.
func DistPackingRounds(n, k, flood int) int {
	perStep := 1 + flood + 1
	return k * ((n-1)*perStep + 1)
}

// AssembleDistPacking collects DistPackingResult outputs into a Packing
// rooted at n-1.
func AssembleDistPacking(n, k int, outputs []any) *Packing {
	maps := make([][]graph.NodeID, k)
	for j := 0; j < k; j++ {
		maps[j] = make([]graph.NodeID, n)
		for v := range maps[j] {
			maps[j][v] = -1
		}
	}
	for v, o := range outputs {
		res, ok := o.(DistPackingResult)
		if !ok {
			continue
		}
		for j := 0; j < k && j < len(res.Parent); j++ {
			maps[j][v] = res.Parent[j]
		}
	}
	return FromParentMaps(graph.NodeID(n-1), maps)
}
