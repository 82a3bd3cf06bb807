// Package resilient implements Section 3 of the paper: f-mobile-resilient
// compilation of arbitrary CONGEST algorithms over a weak (k, D_TP, eta)
// tree packing. It contains ECCSafeBroadcast (Section 3.2.1), the
// sparse-recovery compiler of the technical overview (round overhead
// Õ(D_TP + f)) and the ℓ0-sampling compiler of Algorithm
// ImprovedMobileByzantineSim (Theorem 3.5), plus the clique, expander and
// general-graph applications (Theorems 1.6, 1.7, Corollary 3.9).
package resilient

import (
	"slices"
	"sync"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/ecc"
	"mobilecongest/internal/gf"
	"mobilecongest/internal/rsim"
)

// eccField is the shared GF(2^16) instance for share encoding.
var eccField = gf.NewField16()

// ECCPlan fixes the parameters of one safe broadcast, known to all nodes in
// advance: the padded message size and the derived Reed-Solomon geometry.
// The root's message is padded to MsgBytes, split into ell = MsgBytes/2
// field symbols, encoded into k*w symbols, and tree j carries symbols
// [j*w, (j+1)*w). A tree corrupted anywhere destroys at most w consecutive
// symbols, so up to floor((k*w-ell)/(2w)) >= k/4 bad trees are tolerated.
type ECCPlan struct {
	K        int // number of trees
	MsgBytes int // padded message size (even)
	W        int // symbols per tree
}

// NewECCPlan derives the geometry for broadcasting messages up to maxBytes
// over a k-tree packing.
func NewECCPlan(k, maxBytes int) ECCPlan {
	if maxBytes%2 == 1 {
		maxBytes++
	}
	ell := maxBytes / 2
	if ell < 1 {
		ell = 1
	}
	w := (2*ell + k - 1) / k // ensures ell <= k*w/2
	return ECCPlan{K: k, MsgBytes: 2 * ell, W: w}
}

// eccGeometry is the shared read-only state of one plan: its Reed-Solomon
// code (or, for an invalid plan, the error building it) and the memo table
// its decodes are derived through, which maps a received word to its
// message, or to nil for a word the code could not decode.
type eccGeometry struct {
	code    *ecc.Code
	err     error
	decoded congest.MemoTable[gf.Elem, []byte]
}

// eccGeometries maps each ECCPlan to its *eccGeometry. Every node of every
// run encodes and decodes with the same few geometries, and a code costs
// one 1 KiB table per codeword symbol to build, so each geometry is built
// once per process and then shared. Only valid plans are stored, so the
// map, and the memo-table slots each run's memo keeps, grow with the number
// of distinct valid plans the process ever uses: K*W KiB each (160 KiB for
// the hardened-clique f=2 correction plan), kept for the life of the
// process.
var eccGeometries sync.Map

func (p ECCPlan) geometry() *eccGeometry {
	if g, ok := eccGeometries.Load(p); ok {
		return g.(*eccGeometry)
	}
	code, err := ecc.NewCode(eccField, p.K*p.W, p.MsgBytes/2)
	if err != nil {
		return &eccGeometry{err: err}
	}
	g, _ := eccGeometries.LoadOrStore(p, &eccGeometry{code: code, decoded: congest.NewMemoTable[gf.Elem, []byte]()})
	return g.(*eccGeometry)
}

// Code returns the plan's Reed-Solomon code. Equal plans share one
// read-only *ecc.Code, which is safe for concurrent use.
func (p ECCPlan) Code() (*ecc.Code, error) {
	g := p.geometry()
	return g.code, g.err
}

// encodeShares pads msg to the plan size, RS-encodes it, and splits the
// codeword into per-tree shares of w symbols (2w bytes).
func (p ECCPlan) encodeShares(msg []byte) ([][]byte, error) {
	padded := make([]byte, p.MsgBytes)
	copy(padded, msg)
	symbols := make([]gf.Elem, p.MsgBytes/2)
	for i := range symbols {
		symbols[i] = gf.Elem(padded[2*i])<<8 | gf.Elem(padded[2*i+1])
	}
	code, err := p.Code()
	if err != nil {
		return nil, err
	}
	cw, err := code.Encode(symbols)
	if err != nil {
		return nil, err
	}
	shares := make([][]byte, p.K)
	for j := 0; j < p.K; j++ {
		sh := make([]byte, 2*p.W)
		for x := 0; x < p.W; x++ {
			s := cw[j*p.W+x]
			sh[2*x] = byte(s >> 8)
			sh[2*x+1] = byte(s)
		}
		shares[j] = sh
	}
	return shares, nil
}

// decodeShares reassembles the received per-tree shares (nil = missing) into
// the broadcast message; missing or corrupted trees appear as symbol errors
// for the RS decoder. Every node of a run receives the same word unless the
// adversary corrupted its copy, so the decode is derived through the run's
// memo m: the first node to present a received word decodes it, a failure
// included, and every later node with the same word gets that outcome. The
// caller owns the returned message.
func (p ECCPlan) decodeShares(m *congest.Memo, shares [][]byte) ([]byte, bool) {
	recv := make([]gf.Elem, p.K*p.W)
	for j := 0; j < p.K && j < len(shares); j++ {
		sh := shares[j]
		for x := 0; x < p.W; x++ {
			if 2*x+1 < len(sh) {
				recv[j*p.W+x] = gf.Elem(sh[2*x])<<8 | gf.Elem(sh[2*x+1])
			}
		}
	}
	g := p.geometry()
	if g.err != nil {
		return nil, false
	}
	msg := g.decoded.Derive(m, recv, func() []byte { return g.decode(p, recv) })
	if msg == nil {
		return nil, false
	}
	return slices.Clone(msg), true
}

// onDecode, when tests set it, is called for every received word
// decodeShares decodes (memo hits excluded), to pin the memo's use.
var onDecode func()

// decode runs the Reed-Solomon decoder on a received word, returning nil
// if the word does not decode. A decoded message is never nil: a plan's
// MsgBytes is at least 2.
func (g *eccGeometry) decode(p ECCPlan, recv []gf.Elem) []byte {
	if onDecode != nil {
		onDecode()
	}
	msgSyms, err := g.code.Decode(recv)
	if err != nil {
		return nil
	}
	out := make([]byte, p.MsgBytes)
	for i, s := range msgSyms {
		out[2*i] = byte(s >> 8)
		out[2*i+1] = byte(s)
	}
	return out
}

// eccPayloads keeps each node's per-tree share slice for ECCSafeBroadcast
// across its calls and runs.
var eccPayloads = congest.NewNodeScratch[[][]byte]()

// ECCSafeBroadcast delivers the root's message to every node despite the
// mobile adversary: the root RS-encodes the (padded) message, each tree
// carries one share via the RS-compiled broadcast (rsim.BroadcastDown), and
// every node decodes the closest codeword (Lemma 3.6). Nodes other than the
// root pass msg=nil. Returns the decoded message and whether decoding
// succeeded. Must be invoked in lock-step by all nodes with identical plan,
// depthBound and rep. ob is the node's rsim.Outbox.
func ECCSafeBroadcast(rt congest.Runtime, ob *rsim.Outbox, trees []rsim.TreeView, plan ECCPlan, msg []byte, depthBound, rep int) ([]byte, bool) {
	pp := eccPayloads.Of(rt)
	if cap(*pp) < len(trees) {
		*pp = make([][]byte, len(trees))
	}
	payloads := (*pp)[:len(trees)]
	clear(payloads)
	isRoot := rsim.IsRoot(trees)
	if isRoot && msg != nil {
		shares, err := plan.encodeShares(msg)
		if err == nil {
			for j := range trees {
				if j < len(shares) {
					payloads[j] = shares[j]
				}
			}
		}
	}
	got := rsim.BroadcastDown(rt, ob, trees, payloads, depthBound, rep)
	if isRoot && msg != nil {
		// The root already knows the message.
		padded := make([]byte, plan.MsgBytes)
		copy(padded, msg)
		return padded, true
	}
	return plan.decodeShares(rt.Memo(), got)
}
