package algorithms

import (
	"math/rand"
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Borůvka MST in the CONGESTED CLIQUE (the Lotker et al. model the paper's
// Theorem 1.6 compiles). Each node initially knows only the weights of its
// incident edges (its Input); the protocol runs ceil(log2 n) Borůvka phases
// of 3 rounds each:
//
//  1. every node announces its component ID to everyone;
//  2. every node sends its lightest outgoing edge candidate to its
//     component leader (the smallest ID in the component);
//  3. every leader announces the component's chosen merge edge to everyone,
//     and all nodes merge components locally and identically.
//
// All nodes output the total weight of the resulting MST, so corrupted
// messages anywhere surface in the output.

// CliqueWeights generates consistent inputs for MSTClique: entry u is the
// encoded weight vector of node u, with weight(u,v) symmetric, distinct
// across edges, and non-zero.
func CliqueWeights(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]uint64, n)
	for u := range w {
		w[u] = make([]uint64, n)
	}
	next := uint64(1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			// Random magnitude with a unique low-order tiebreaker keeps
			// weights distinct (and 32-bit, so candidates fit one 8-byte
			// message), and the MST unique.
			val := (uint64(rng.Intn(512)) << 13) | next
			next++
			w[u][v] = val
			w[v][u] = val
		}
	}
	inputs := make([][]byte, n)
	for u := 0; u < n; u++ {
		var buf []byte
		for v := 0; v < n; v++ {
			buf = congest.PutU64(buf, w[u][v])
		}
		inputs[u] = buf
	}
	return inputs
}

// decodeWeights recovers the weight vector from a node input.
func decodeWeights(input []byte, n int) []uint64 {
	w := make([]uint64, n)
	for v := 0; v < n; v++ {
		if 8*(v+1) <= len(input) {
			w[v] = congest.U64(input[8*v : 8*(v+1)])
		}
	}
	return w
}

// MSTClique runs Borůvka in the congested clique and outputs the MST total
// weight at every node.
func MSTClique() congest.Protocol {
	return func(rt congest.Runtime) {
		n := rt.N()
		weights := decodeWeights(rt.Input(), n)
		comp := make([]graph.NodeID, n)
		for i := range comp {
			comp[i] = graph.NodeID(i)
		}
		phases := 1
		for s := 1; s < n; s *= 2 {
			phases++
		}
		chosen := make(map[graph.Edge]uint64)
		buf := make(congest.Msg, 0, 8)
		for p := 0; p < phases; p++ {
			// Round 1: announce component IDs.
			out := rt.OutBuf()
			announce := congest.PutU64(buf[:0], uint64(comp[rt.ID()]))
			for i := range out {
				out[i] = announce
			}
			in := rt.ExchangePorts(out)
			for i, m := range in {
				if m == nil {
					continue
				}
				if c := congest.U64(m); c < uint64(n) {
					comp[rt.Neighbor(i)] = graph.NodeID(c)
				}
			}
			// Local: lightest incident edge leaving my component.
			bestW := uint64(0)
			bestV := graph.NodeID(-1)
			for v := 0; v < n; v++ {
				if graph.NodeID(v) == rt.ID() || comp[v] == comp[rt.ID()] || weights[v] == 0 {
					continue
				}
				if bestV < 0 || weights[v] < bestW {
					bestW = weights[v]
					bestV = graph.NodeID(v)
				}
			}
			// Round 2: send candidate (weight, me, other) to component
			// leader. Leaders collect; everyone else sends an empty slot to
			// nobody (silent).
			leader := comp[rt.ID()]
			out = rt.OutBuf()
			if bestV >= 0 && leader != rt.ID() {
				if lp := rt.Port(leader); lp >= 0 {
					out[lp] = packCandidate(bestW, rt.ID(), bestV)
				} else {
					// Non-clique topology: abort the run with the canonical
					// non-neighbor error, like the map outbox used to (and
					// never fall through desynced if a wrapper tolerates it).
					//lint:ignore portnative deliberate abort path: the map Exchange is the canonical way to trigger the engine's non-neighbor error
					rt.Exchange(map[graph.NodeID]congest.Msg{leader: packCandidate(bestW, rt.ID(), bestV)})
					panic("algorithms: MSTClique component leader is not adjacent")
				}
			}
			in = rt.ExchangePorts(out)
			// Leader picks the component minimum (including its own
			// candidate).
			type cand struct {
				w    uint64
				u, v graph.NodeID
			}
			var best *cand
			if leader == rt.ID() && bestV >= 0 {
				best = &cand{w: bestW, u: rt.ID(), v: bestV}
			}
			if leader == rt.ID() {
				for i, m := range in {
					if m == nil || comp[rt.Neighbor(i)] != leader || len(m) < 8 {
						continue
					}
					w, u, v := unpackCandidate(m)
					c := cand{w: w, u: u, v: v}
					if best == nil || c.w < best.w {
						best = &cand{w: c.w, u: c.u, v: c.v}
					}
				}
			}
			// Round 3: leaders announce merge edges to everyone.
			out = rt.OutBuf()
			if leader == rt.ID() && best != nil {
				msg := packCandidate(best.w, best.u, best.v)
				for i := range out {
					out[i] = msg
				}
			}
			in = rt.ExchangePorts(out)
			// Everyone (including leaders) collects all announced merge
			// edges and merges components identically.
			type merge struct {
				w    uint64
				u, v graph.NodeID
			}
			var merges []merge
			if leader == rt.ID() && best != nil {
				merges = append(merges, merge{w: best.w, u: best.u, v: best.v})
			}
			for _, m := range in {
				if m == nil || len(m) < 8 {
					continue
				}
				w, u, v := unpackCandidate(m)
				merges = append(merges, merge{w: w, u: u, v: v})
			}
			sort.Slice(merges, func(i, j int) bool { return merges[i].w < merges[j].w })
			for _, mg := range merges {
				if int(mg.u) >= n || int(mg.v) >= n || mg.u == mg.v {
					continue
				}
				cu, cv := find(comp, mg.u), find(comp, mg.v)
				if cu == cv {
					continue
				}
				chosen[graph.NewEdge(mg.u, mg.v)] = mg.w
				// Union by smaller leader ID.
				if cu < cv {
					comp[cv] = cu
				} else {
					comp[cu] = cv
				}
			}
			// Path-compress so component IDs are canonical leaders.
			for i := range comp {
				comp[i] = find(comp, graph.NodeID(i))
			}
		}
		var total uint64
		for _, w := range chosen {
			total += w
		}
		rt.SetOutput(total)
	}
}

// packCandidate encodes (weight, u, v) into exactly 8 bytes — the payload
// size the byzantine compiler's sketches support.
func packCandidate(w uint64, u, v graph.NodeID) congest.Msg {
	m := congest.PutU32(nil, uint32(w))
	m = append(m, byte(u>>8), byte(u), byte(v>>8), byte(v))
	return m
}

func unpackCandidate(m congest.Msg) (uint64, graph.NodeID, graph.NodeID) {
	w := uint64(congest.U32(m))
	var u, v graph.NodeID
	if len(m) >= 8 {
		u = graph.NodeID(int(m[4])<<8 | int(m[5]))
		v = graph.NodeID(int(m[6])<<8 | int(m[7]))
	}
	return w, u, v
}

func find(comp []graph.NodeID, u graph.NodeID) graph.NodeID {
	for comp[u] != u {
		u = comp[u]
	}
	return u
}

// MSTRounds returns the fixed round count of MSTClique for n nodes.
func MSTRounds(n int) int {
	phases := 1
	for s := 1; s < n; s *= 2 {
		phases++
	}
	return 3 * phases
}

// ReferenceMSTWeight computes the true MST weight of the clique weights
// centrally (Kruskal), for verifying protocol outputs.
func ReferenceMSTWeight(inputs [][]byte) uint64 {
	n := len(inputs)
	type we struct {
		w    uint64
		u, v int
	}
	var edges []we
	for u := 0; u < n; u++ {
		wu := decodeWeights(inputs[u], n)
		for v := u + 1; v < n; v++ {
			edges = append(edges, we{w: wu[v], u: u, v: v})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var findI func(int) int
	findI = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total uint64
	cnt := 0
	for _, e := range edges {
		ru, rv := findI(e.u), findI(e.v)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		total += e.w
		cnt++
		if cnt == n-1 {
			break
		}
	}
	return total
}
