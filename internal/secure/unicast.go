package secure

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Secure unicast (Appendix A.1). The static scheme realizes Jain's
// guarantees via a random flow: fix a spanning tree rooted at the target t.
// Every non-tree edge carries one fresh uniform field element (chosen by the
// higher-ID endpoint); every node then balances the XOR of its incident edge
// values on its parent edge, with the source offsetting by the secret. The
// target's incident XOR equals the secret; exactly one message crosses each
// edge; and the view on any edge set F is independent of the secret as long
// as F does not disconnect s and t (a unit s-t flow supported on E\F shifts
// the randomness coset without touching F).

// UnicastShared is the preprocessing for unicast runs: the graph plus a BFS
// spanning tree rooted at the target (computable in O(D) fault-free rounds;
// it is input-independent, so distributing it leaks nothing).
type UnicastShared struct {
	G      *graph.Graph
	Target graph.NodeID
	Parent []graph.NodeID // BFS parent toward Target
	Depth  []int          // BFS depth
}

// NewUnicastShared builds the artifact for target t.
func NewUnicastShared(g *graph.Graph, target graph.NodeID) *UnicastShared {
	dist, parent := g.BFS(target)
	return &UnicastShared{G: g, Target: target, Parent: parent, Depth: dist}
}

// MaxDepth returns the BFS tree depth.
func (u *UnicastShared) MaxDepth() int {
	d := 0
	for _, x := range u.Depth {
		if x > d {
			d = x
		}
	}
	return d
}

// UnicastResult is the target's output.
type UnicastResult struct {
	Secret uint64
}

// StaticSecureUnicast returns the one-message-per-edge secure unicast
// protocol: source s sends the 8-byte secret from its Input to the shared
// target. Every node outputs nothing except the target, which outputs
// UnicastResult. Round complexity: MaxDepth+1. Security holds against a
// static eavesdropper on F whenever s and t stay connected in G\F.
func StaticSecureUnicast(s graph.NodeID) congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*UnicastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.UnicastShared")
		}
		runStaticUnicast(rt, sh, s, nil)
	}
}

// runStaticUnicast executes the random-flow scheme; keyFor, when non-nil,
// supplies a one-time-pad key per outgoing port (the mobile variant). It
// returns the value at the target (0 elsewhere). The scheme is port-native:
// per-edge values live in a port-indexed slice and every round moves through
// the runtime's reusable port buffers.
func runStaticUnicast(rt congest.Runtime, sh *UnicastShared, s graph.NodeID, keyFor func(port int) []byte) {
	me := rt.ID()
	depthMax := sh.MaxDepth()
	var secret uint64
	if me == s {
		secret = congest.U64(rt.Input())
	}

	// edgeVal[p] is the value of the edge on port p once known.
	edgeVal := make([]uint64, rt.Degree())
	parent := sh.Parent[me]
	parentPort := -1
	if parent >= 0 {
		parentPort = rt.Port(parent)
	}
	isTreeEdge := func(a, b graph.NodeID) bool {
		return sh.Parent[a] == b || sh.Parent[b] == a
	}
	encrypt := func(p int, m congest.Msg) congest.Msg {
		if keyFor == nil {
			return m
		}
		return padInto(nil, m, keyFor(p))
	}
	decrypt := encrypt

	// Round 1: non-tree edges — the higher-ID endpoint draws the value.
	out := rt.OutBuf()
	for p := 0; p < rt.Degree(); p++ {
		v := rt.Neighbor(p)
		if isTreeEdge(me, v) || me < v {
			continue
		}
		val := rt.Rand().Uint64()
		edgeVal[p] = val
		out[p] = encrypt(p, congest.U64Msg(val))
	}
	in := rt.ExchangePorts(out)
	for p, m := range in {
		if m != nil {
			edgeVal[p] = congest.U64(decrypt(p, m))
		}
	}

	// Rounds 2..depthMax+1: nodes at depth d send their balanced parent
	// value in round (depthMax - d + 2); shallower nodes have all child
	// values by then.
	for r := 0; r < depthMax; r++ {
		out = rt.OutBuf()
		if me != sh.Target && sh.Depth[me] == depthMax-r && parentPort >= 0 {
			var acc uint64
			for p := range edgeVal {
				if p == parentPort {
					continue
				}
				acc ^= edgeVal[p] // zero if the edge has no value (leaf side)
			}
			if me == s {
				acc ^= secret
			}
			edgeVal[parentPort] = acc
			out[parentPort] = encrypt(parentPort, congest.U64Msg(acc))
		}
		in = rt.ExchangePorts(out)
		for p, m := range in {
			if m != nil {
				edgeVal[p] = congest.U64(decrypt(p, m))
			}
		}
	}

	if me == sh.Target {
		var acc uint64
		for _, v := range edgeVal {
			acc ^= v
		}
		if me == s {
			acc ^= secret // degenerate s == t case
		}
		rt.SetOutput(UnicastResult{Secret: acc})
		return
	}
	rt.SetOutput(UnicastResult{})
}

// MobileSecureUnicast is Lemma A.3: one preliminary round exchanges fresh
// OTP keys on every edge, then the static scheme runs with every message
// encrypted. The adversary learns nothing provided F_1 (its round-1 edges)
// does not disconnect s and t — even if it controls every edge afterwards.
// Round complexity: MaxDepth+2; congestion 2.
func MobileSecureUnicast(s graph.NodeID) congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*UnicastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.UnicastShared")
		}
		// Preliminary round: K(u,v) chosen by the higher-ID endpoint.
		keys := make([][]byte, rt.Degree())
		out := rt.OutBuf()
		for p := 0; p < rt.Degree(); p++ {
			if v := rt.Neighbor(p); rt.ID() > v {
				k := make([]byte, 8)
				rt.Rand().Read(k)
				keys[p] = k
				out[p] = congest.Msg(k).Clone()
			}
		}
		in := rt.ExchangePorts(out)
		for p, m := range in {
			if m != nil && rt.ID() < rt.Neighbor(p) {
				keys[p] = m.Clone()
			}
		}
		runStaticUnicast(rt, sh, s, func(port int) []byte { return keys[port] })
	}
}

// UnicastRounds returns the fixed round count of the static (mobile)
// variants for a given shared tree.
func UnicastRounds(sh *UnicastShared, mobile bool) int {
	r := sh.MaxDepth() + 1
	if mobile {
		r++
	}
	return r
}
