// Package resilient implements Section 3 of the paper: f-mobile-resilient
// compilation of arbitrary CONGEST algorithms over a weak (k, D_TP, eta)
// tree packing. It contains ECCSafeBroadcast (Section 3.2.1), the
// sparse-recovery compiler of the technical overview (round overhead
// Õ(D_TP + f)) and the ℓ0-sampling compiler of Algorithm
// ImprovedMobileByzantineSim (Theorem 3.5), plus the clique, expander and
// general-graph applications (Theorems 1.6, 1.7, Corollary 3.9).
package resilient

import (
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

// eccCodes memoizes ECCPlan.Code, mapping each plan to its *ecc.Code. Every
// node of every run encodes and decodes with the same few geometries, and a
// code costs one 1 KiB table per codeword symbol to build, so each geometry
// is built once per process and then shared. The memo holds K*W KiB per
// distinct plan (160 KiB for the hardened-clique f=2 correction plan) for
// the life of the process.
var eccCodes sync.Map

// Code returns the plan's Reed-Solomon code. Equal plans share one
// read-only *ecc.Code, which is safe for concurrent use.
func (p ECCPlan) Code() (*ecc.Code, error) {
	if c, ok := eccCodes.Load(p); ok {
		return c.(*ecc.Code), nil
	}
	c, err := ecc.NewCode(eccField, p.K*p.W, p.MsgBytes/2)
	if err != nil {
		return nil, err
	}
	shared, _ := eccCodes.LoadOrStore(p, c)
	return shared.(*ecc.Code), nil
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
// for the RS decoder.
func (p ECCPlan) decodeShares(shares [][]byte) ([]byte, bool) {
	recv := make([]gf.Elem, p.K*p.W)
	for j := 0; j < p.K && j < len(shares); j++ {
		sh := shares[j]
		for x := 0; x < p.W; x++ {
			if 2*x+1 < len(sh) {
				recv[j*p.W+x] = gf.Elem(sh[2*x])<<8 | gf.Elem(sh[2*x+1])
			}
		}
	}
	code, err := p.Code()
	if err != nil {
		return nil, false
	}
	msgSyms, err := code.Decode(recv)
	if err != nil {
		return nil, false
	}
	out := make([]byte, p.MsgBytes)
	for i, s := range msgSyms {
		out[2*i] = byte(s >> 8)
		out[2*i+1] = byte(s)
	}
	return out, true
}

// ECCSafeBroadcast delivers the root's message to every node despite the
// mobile adversary: the root RS-encodes the (padded) message, each tree
// carries one share via the RS-compiled broadcast (rsim.BroadcastDown), and
// every node decodes the closest codeword (Lemma 3.6). Nodes other than the
// root pass msg=nil. Returns the decoded message and whether decoding
// succeeded. Must be invoked in lock-step by all nodes with identical plan,
// depthBound and rep. ob is the node's rsim.Outbox.
func ECCSafeBroadcast(rt congest.Runtime, ob *rsim.Outbox, trees []rsim.TreeView, plan ECCPlan, msg []byte, depthBound, rep int) ([]byte, bool) {
	payloads := make([][]byte, len(trees))
	isRoot := false
	for _, tv := range trees {
		if tv.Depth == 0 {
			isRoot = true
			break
		}
	}
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
	return plan.decodeShares(got)
}
