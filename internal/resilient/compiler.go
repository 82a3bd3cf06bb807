package resilient

import (
	"fmt"
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/rsim"
	"mobilecongest/internal/sketch"
	"mobilecongest/internal/treepack"
)

// Mode selects the mismatch-correction machinery.
type Mode int

const (
	// SparseMode is the Õ(D_TP + f) variant of Section 1.2.2: one
	// sparse-recovery sketch per tree recovers the full mismatch list and
	// the root takes a majority across trees.
	SparseMode Mode = iota + 1
	// L0Mode is Algorithm ImprovedMobileByzantineSim (Theorem 3.5):
	// O(log f) iterations of ℓ0-sampling with support thresholds.
	L0Mode
)

// MaxPayloadBytes is the largest payload message the compiler can protect:
// messages are packed with their directed-edge index into the sketch
// element space.
const MaxPayloadBytes = 8

// Shared is the trusted preprocessing artifact the compiled protocol needs
// (Theorem 3.5 assumes distributed knowledge of a weak tree packing; the
// graph itself covers the supported-CONGEST/KT1 edge indexing).
type Shared struct {
	// G is the communication graph (used only for consistent edge
	// indexing).
	G *graph.Graph
	// Packing is the weak (k, D_TP, eta) tree packing.
	Packing *treepack.Packing
	// Views is rsim.Views(Packing), precomputed once.
	Views [][]rsim.TreeView
	// Payload carries an inner Shared artifact for the payload protocol,
	// if it needs one.
	Payload any
}

// NewShared bundles a graph and packing.
func NewShared(g *graph.Graph, p *treepack.Packing) *Shared {
	return &Shared{G: g, Packing: p, Views: rsim.Views(p)}
}

// Config parameterizes the compiler.
type Config struct {
	// Mode selects sparse-recovery or ℓ0-sampling correction.
	Mode Mode
	// F is the mobile adversary bound the compilation defends against.
	F int
	// Rep is the per-slot repetition of the RS-compiled tree protocols
	// (t_RS); higher tolerates more per-slot corruption.
	Rep int
	// Samplers is t, the number of independent ℓ0 samplers per tree
	// (L0Mode only).
	Samplers int
	// Iterations is z, the number of correction iterations (L0Mode only;
	// 0 derives O(log f) + slack).
	Iterations int
	// TraceFn, when set, is called at every node after each correction
	// iteration with the simulated round, iteration index, and the number
	// of corrections broadcast — the observable proxy for the mismatch
	// count B_j of Lemma 3.8 (experiment F3).
	TraceFn func(simRound, iter, corrections int)
}

func (c Config) withDefaults() Config {
	if c.Rep <= 0 {
		c.Rep = 5
	}
	if c.Samplers <= 0 {
		c.Samplers = 8
	}
	if c.Iterations <= 0 {
		z := 1
		for v := 1; v < 4*c.F+1; v *= 2 {
			z++
		}
		c.Iterations = z + 2
	}
	if c.Mode == 0 {
		c.Mode = SparseMode
	}
	return c
}

// estimate is one received-message estimate: present or absent.
type estimate struct {
	present bool
	data    uint64 // payload bytes, big-endian packed
	length  int    // original message length (<= MaxPayloadBytes)
}

// packPayload encodes a payload message (<= 8 bytes) into the 64-bit
// element payload with its length in the edge-index tag bits.
func packPayload(m congest.Msg) (uint64, int) {
	var v uint64
	for i := 0; i < len(m) && i < MaxPayloadBytes; i++ {
		v = v<<8 | uint64(m[i])
	}
	l := len(m)
	if l > MaxPayloadBytes {
		l = MaxPayloadBytes
	}
	return v, l
}

// unpackPayload reverses packPayload.
func unpackPayload(v uint64, l int) congest.Msg {
	m := make(congest.Msg, l)
	for i := l - 1; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// dirIndex gives the consistent stream index of a directed edge: edge index
// shifted, low bit for direction, next bits for payload length.
func dirIndex(g *graph.Graph, from, to graph.NodeID, payloadLen int) uint32 {
	ei := g.EdgeIndex(from, to)
	d := uint32(0)
	if from > to {
		d = 1
	}
	return uint32(ei)<<5 | uint32(payloadLen&0xF)<<1 | d
}

// splitDirIndex recovers (edge index, payload length, direction bit).
func splitDirIndex(idx uint32) (ei int, payloadLen int, dirBit int) {
	return int(idx >> 5), int(idx >> 1 & 0xF), int(idx & 1)
}

// correction is one entry of the broadcast mismatch list.
type correction struct {
	idx  uint32 // dirIndex
	data uint64
	plus bool // true: the correct sent message; false: a wrong received value
}

const correctionBytes = 13

func encodeCorrections(cs []correction) []byte {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].idx != cs[j].idx {
			return cs[i].idx < cs[j].idx
		}
		if cs[i].plus != cs[j].plus {
			return cs[i].plus
		}
		return cs[i].data < cs[j].data
	})
	out := []byte{byte(len(cs) >> 8), byte(len(cs))}
	for _, c := range cs {
		out = congest.PutU32(out, c.idx)
		out = congest.PutU64(out, c.data)
		if c.plus {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

func decodeCorrections(b []byte) []correction {
	if len(b) < 2 {
		return nil
	}
	n := int(b[0])<<8 | int(b[1])
	var out []correction
	off := 2
	for i := 0; i < n && off+correctionBytes <= len(b); i++ {
		out = append(out, correction{
			idx:  congest.U32(b[off:]),
			data: congest.U64(b[off+4:]),
			plus: b[off+12] == 1,
		})
		off += correctionBytes
	}
	return out
}

// Compile turns any payload protocol whose messages fit MaxPayloadBytes into
// an f-mobile-resilient protocol over the shared tree packing (Theorem 3.5 /
// the sparse variant of Section 1.2.2). The run's Shared artifact must be a
// *Shared; the payload protocol sees Shared.Payload.
func Compile(payload congest.Protocol, cfg Config) congest.Protocol {
	cfg = cfg.withDefaults()
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*Shared)
		if !ok {
			panic("resilient: run Config.Shared must be *resilient.Shared")
		}
		sim := &simulator{
			rt:    rt,
			cfg:   cfg,
			sh:    sh,
			trees: sh.Views[rt.ID()],
			depth: rsim.MaxDepth(sh.Views),
		}
		w := &congest.WrappedRuntime{Base: rt, ExchangePortsFn: sim.exchange}
		w.ShadowShared = sh.Payload
		payload(w)
	}
}

// simulator holds one node's compiler state.
type simulator struct {
	rt    congest.Runtime
	cfg   Config
	sh    *Shared
	trees []rsim.TreeView
	depth int
	round int
	in    []congest.Msg // the payload's port inbox, reused per round
	out   rsim.Outbox   // the node's rsim frames, kept across calls

	sketches sketch.RecoveryImages // per-tree sketch images, reused per iteration
}

// exchange simulates one payload round: raw exchange, then mismatch
// correction (Steps 1-3 of Section 3.2.2). out is the payload's port
// outbox; the returned slice is its port inbox, owned by the simulator.
func (s *simulator) exchange(out []congest.Msg) []congest.Msg {
	for p, m := range out {
		if len(m) > MaxPayloadBytes {
			panic(fmt.Sprintf("resilient: payload message to %d has %d bytes, max %d", s.rt.Neighbor(p), len(m), MaxPayloadBytes))
		}
	}
	// Step 1: single-round message exchange.
	pout := s.rt.OutBuf()
	sent := make(map[graph.NodeID]estimate, len(out))
	for p, m := range out {
		if m == nil {
			continue
		}
		pout[p] = m
		v, l := packPayload(m)
		sent[s.rt.Neighbor(p)] = estimate{present: true, data: v, length: l}
	}
	est := make(map[graph.NodeID]estimate, s.rt.Degree())
	for p, m := range s.rt.ExchangePorts(pout) {
		if m != nil {
			v, l := packPayload(m)
			est[s.rt.Neighbor(p)] = estimate{present: true, data: v, length: l}
		}
	}

	// Steps 2+3: correction iterations.
	iters := 1
	if s.cfg.Mode == L0Mode {
		iters = s.cfg.Iterations
	}
	for j := 0; j < iters; j++ {
		var corr []correction
		var decoded bool
		if s.cfg.Mode == SparseMode {
			corr, decoded = s.sparseIteration(sent, est, j)
		} else {
			corr, decoded = s.l0Iteration(sent, est, j)
		}
		if decoded {
			s.applyCorrections(corr, est)
		}
		if s.cfg.TraceFn != nil {
			s.cfg.TraceFn(s.round, j, len(corr))
		}
	}
	s.round++

	// Materialize corrected inbox.
	if s.in == nil {
		s.in = make([]congest.Msg, s.rt.Degree())
	}
	for p := range s.in {
		s.in[p] = nil
		if e := est[s.rt.Neighbor(p)]; e.present {
			s.in[p] = unpackPayload(e.data, e.length)
		}
	}
	return s.in
}

// localStream feeds this node's turnstile stream into upd: sent messages
// with +1, current estimates with -1 (Section 3.2.2 Step 2).
func (s *simulator) localStream(sent, est map[graph.NodeID]estimate, upd func(e sketch.Elem, f int64)) {
	me := s.rt.ID()
	for to, e := range sent {
		if !e.present {
			continue
		}
		idx := dirIndex(s.sh.G, me, to, e.length)
		upd(sketch.Pack(idx, e.data), 1)
	}
	for from, e := range est {
		if !e.present {
			continue
		}
		idx := dirIndex(s.sh.G, from, me, e.length)
		upd(sketch.Pack(idx, e.data), -1)
	}
}

// applyCorrections rewrites the estimates per the broadcast list: a plus
// entry for an incoming edge replaces the estimate with the true message; a
// minus entry matching the current (wrong) estimate deletes it unless a plus
// entry supersedes.
func (s *simulator) applyCorrections(corr []correction, est map[graph.NodeID]estimate) {
	me := s.rt.ID()
	plusFor := make(map[graph.NodeID]correction)
	minusFor := make(map[graph.NodeID]correction)
	for _, c := range corr {
		ei, l, dirBit := splitDirIndex(c.idx)
		if ei < 0 || ei >= s.sh.G.M() {
			continue
		}
		edge := s.sh.G.Edges()[ei]
		from, to := edge.U, edge.V
		if dirBit == 1 {
			from, to = edge.V, edge.U
		}
		if to != me {
			continue
		}
		_ = l
		if c.plus {
			plusFor[from] = c
		} else {
			minusFor[from] = c
		}
	}
	for from, c := range plusFor {
		_, l, _ := splitDirIndex(c.idx)
		est[from] = estimate{present: true, data: c.data, length: l}
	}
	for from, c := range minusFor {
		if _, hasPlus := plusFor[from]; hasPlus {
			continue
		}
		cur, ok := est[from]
		_, l, _ := splitDirIndex(c.idx)
		if ok && cur.present && cur.data == c.data && cur.length == l {
			delete(est, from)
		}
	}
}
