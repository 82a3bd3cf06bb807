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
// k > f*load). Every node outputs the recovered uint64. Its key phase picks
// the t of Lemma A.1 itself: t = 2*f*keysPerEdge, which gives f' = f.
func MobileSecureBroadcast(f int) congest.Protocol {
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*BroadcastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.BroadcastShared")
		}
		views := sh.Views[rt.ID()]
		k := len(views)
		depth := rsim.MaxDepth(sh.Views)
		// A share crosses each edge of its tree once, so an edge-direction
		// needs one key per tree through it: at most the packing load eta,
		// and never more than k. Every node's views list all k trees, so
		// keysPerEdge = k is known locally and equal at both endpoints of
		// every edge, which must size Phase 1 and the extractor alike.
		keysPerEdge := len(views)
		// Phase 1: local secret exchange sized for f' = f (t >= 2*f*r).
		ell := keysPerEdge + 2*f*keysPerEdge
		if ell < keysPerEdge+1 {
			ell = keysPerEdge + 1
		}
		kp := takeKeyPhase(rt)
		exchangeSecrets(rt, ell, kp)
		sendKeys, recvKeys := newKeyExtractor(ell, keysPerEdge, "broadcast").keys(rt.Memo(), kp)
		usedSend := make([]int, rt.Degree())
		usedRecv := make([]int, rt.Degree())

		// Source: XOR-share the secret.
		shares := make([][]byte, k)
		if rsim.IsRoot(views) {
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
		// message is one-time-padded with the next key of its edge. A
		// message is a 1-byte tree index and a padded share; have[j] is a
		// view of haveBuf once tree j's share arrived, and each port's
		// outgoing shares are built in its own reusable buffer.
		const shareMsg = 1 + keyBytes
		have := make([][]byte, k)
		haveBuf := make([]byte, k*keyBytes)
		for j, tv := range views {
			if tv.Depth == 0 {
				have[j] = shares[j]
			}
		}
		sendBuf := make([][]byte, rt.Degree())
		type sendRec struct {
			port int
			tree int
		}
		var sends []sendRec
		for slot := 0; slot <= depth; slot++ {
			out := rt.OutBuf()
			sends = sends[:0]
			for j, tv := range views {
				if tv.Depth < 0 || have[j] == nil || slot != tv.Depth {
					continue
				}
				for _, c := range tv.Children {
					sends = append(sends, sendRec{port: rt.Port(c), tree: j})
				}
			}
			for _, sr := range sends {
				key := sendKeys[sr.port].Key(usedSend[sr.port])
				usedSend[sr.port]++
				// Two trees may share this edge and slot: their shares are
				// concatenated, and keys advance per share so secrecy is
				// preserved.
				buf := out[sr.port]
				if buf == nil {
					buf = sendBuf[sr.port][:0]
				}
				buf = padInto(append(buf, byte(sr.tree)), have[sr.tree], key)
				sendBuf[sr.port], out[sr.port] = buf, buf
			}
			in := rt.ExchangePorts(out)
			for p, m := range in {
				if m == nil {
					continue
				}
				from := rt.Neighbor(p)
				for off := 0; off+shareMsg <= len(m); off += shareMsg {
					tree := int(m[off])
					if tree < 0 || tree >= k {
						continue
					}
					key := recvKeys[p].Key(usedRecv[p])
					usedRecv[p]++
					if views[tree].Parent == from && have[tree] == nil {
						have[tree] = padInto(haveBuf[tree*keyBytes:tree*keyBytes:(tree+1)*keyBytes], m[off+1:off+shareMsg], key)
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
