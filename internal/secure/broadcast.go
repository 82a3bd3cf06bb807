package secure

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/rsim"
	"mobilecongest/internal/treepack"
)

// Mobile-secure broadcast (Appendix A.2 / Theorem A.4, share-per-tree
// variant; see "Substitutions" in the README). The source XOR-shares
// its 8-byte secret into k shares, one per tree of a (k, D_TP, eta) packing
// rooted at the source; Phase 1 equips every edge with enough extracted keys
// to one-time-pad the downcast of its <= eta shares. An f-mobile
// eavesdropper learns the key pools of at most f edges (Lemma A.1), hence at
// most f*eta shares; with k > f*eta at least one share stays hidden and the
// secret is perfectly protected.

// BroadcastShared is the preprocessing artifact: a tree packing rooted at
// the broadcast source.
type BroadcastShared struct {
	G       *graph.Graph
	Packing *treepack.Packing
	Views   [][]rsim.TreeView
}

// NewBroadcastShared packs k greedy low-depth trees rooted at source.
func NewBroadcastShared(g *graph.Graph, source graph.NodeID, k, depthBound int) *BroadcastShared {
	p := treepack.GreedyLowDepth(g, source, k, depthBound, 1)
	return &BroadcastShared{G: g, Packing: p, Views: rsim.Views(p)}
}

// MinSharesFor reports the smallest k guaranteeing secrecy against an
// f-mobile eavesdropper for a packing of load eta: k > f*eta.
func MinSharesFor(f, eta int) int { return f*eta + 1 }

// MobileSecureBroadcast floods the source's 8-byte Input secret to every
// node with perfect security against f-mobile eavesdroppers (for
// k > f*load). Every node outputs the recovered uint64. keySlack is the t
// of Lemma A.1 for the key phase (t >= 2*f*keysPerEdge gives f'=f; pass
// f and the protocol derives it).
func MobileSecureBroadcast(f int) congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*BroadcastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.BroadcastShared")
		}
		pr := congest.Ports(rt)
		views := sh.Views[rt.ID()]
		k := len(views)
		depth := rsim.MaxDepth(sh.Views)
		// Each tree edge carries one share per tree it belongs to, and the
		// downcast pipelines over depth rounds: a share crosses each of its
		// tree's edges exactly once, so keysPerEdge = eta suffices; we round
		// up to the packing load bound k (safe upper bound: an edge is in at
		// most k trees).
		keysPerEdge := 0
		for range views {
			keysPerEdge++
		}
		// Phase 1: local secret exchange sized for f' = f (t >= 2*f*r).
		ell := keysPerEdge + 2*f*keysPerEdge
		if ell < keysPerEdge+1 {
			ell = keysPerEdge + 1
		}
		sent, recv := exchangeSecrets(pr, ell)
		sendKeys := deriveKeyPools(sent, ell, keysPerEdge, "broadcast")
		recvKeys := deriveKeyPools(recv, ell, keysPerEdge, "broadcast")
		usedSend := make([]int, pr.Degree())
		usedRecv := make([]int, pr.Degree())

		// Source: XOR-share the secret.
		isSource := false
		for _, tv := range views {
			if tv.Depth == 0 {
				isSource = true
			}
		}
		shares := make([][]byte, k)
		if isSource {
			secret := congest.U64(rt.Input())
			var acc uint64
			for j := 0; j < k-1; j++ {
				s := rt.Rand().Uint64()
				acc ^= s
				shares[j] = congest.PutU64(nil, s)
			}
			shares[k-1] = congest.PutU64(nil, acc^secret)
		}

		// Phase 2: pipelined downcast, one slot per depth level; every
		// message is one-time-padded with the next key of its edge.
		have := make([][]byte, k)
		for j, tv := range views {
			if tv.Depth == 0 {
				have[j] = shares[j]
			}
		}
		for slot := 0; slot <= depth; slot++ {
			out := pr.OutBuf()
			type sendRec struct {
				port int
				tree int
			}
			var sends []sendRec
			for j, tv := range views {
				if tv.Depth < 0 || have[j] == nil || slot != tv.Depth {
					continue
				}
				for _, c := range tv.Children {
					sends = append(sends, sendRec{port: pr.Port(c), tree: j})
				}
			}
			for _, sr := range sends {
				key := sendKeys[sr.port].Key(usedSend[sr.port])
				usedSend[sr.port]++
				m := append(congest.Msg{byte(sr.tree)}, xorBytes(have[sr.tree], key)...)
				// One message per edge per round in this scheme: tree edges
				// are packing edges, and a (child, slot) pair receives from
				// one parent in one tree at a time under load eta <= slots.
				if prev := out[sr.port]; prev != nil {
					// Two trees share this edge and slot: concatenate; keys
					// advance per share so secrecy is preserved.
					out[sr.port] = append(prev, m...)
					continue
				}
				out[sr.port] = m
			}
			in := pr.ExchangePorts(out)
			for p, m := range in {
				if m == nil {
					continue
				}
				from := pr.Neighbor(p)
				for off := 0; off+9 <= len(m); off += 9 {
					tree := int(m[off])
					if tree < 0 || tree >= k {
						continue
					}
					key := recvKeys[p].Key(usedRecv[p])
					usedRecv[p]++
					if views[tree].Parent == from && have[tree] == nil {
						have[tree] = xorBytes(m[off+1:off+9], key)
					}
				}
			}
		}
		var secret uint64
		for j := 0; j < k; j++ {
			secret ^= congest.U64(have[j])
		}
		rt.SetOutput(secret)
	}
}
