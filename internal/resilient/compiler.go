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

// PackedMsg is one payload message packed into a word, or an absent one:
// the message's bytes big-endian in Data and its length in Length. It is
// the compilers' per-edge estimate and transcript symbol.
type PackedMsg struct {
	Present bool
	Data    uint64
	Length  int // at most MaxPayloadBytes
}

// PackPayload packs a payload message of at most MaxPayloadBytes bytes; a
// nil message packs to the absent PackedMsg.
func PackPayload(m congest.Msg) PackedMsg {
	if m == nil {
		return PackedMsg{}
	}
	l := min(len(m), MaxPayloadBytes)
	var v uint64
	for _, b := range m[:l] {
		v = v<<8 | uint64(b)
	}
	return PackedMsg{Present: true, Data: v, Length: l}
}

// UnpackPayload reverses PackPayload: an absent message unpacks to nil.
func UnpackPayload(e PackedMsg) congest.Msg {
	if !e.Present {
		return nil
	}
	m := make(congest.Msg, e.Length)
	v := e.Data
	for i := e.Length - 1; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// DirIndex gives the consistent stream index of a directed edge: the edge
// index shifted, a 4-bit tag (a payload length, a word index) in the next
// bits, and the direction in the low bit.
func DirIndex(g *graph.Graph, from, to graph.NodeID, tag int) uint32 {
	ei := g.EdgeIndex(from, to)
	d := uint32(0)
	if from > to {
		d = 1
	}
	return uint32(ei)<<5 | uint32(tag&0xF)<<1 | d
}

// IncomingPort inverts DirIndex at rt's node: it returns the port the
// indexed edge comes in on and the index's tag, or ok false if the index
// names no edge of g into the node.
func IncomingPort(rt congest.Runtime, g *graph.Graph, idx uint32) (port, tag int, ok bool) {
	ei := int(idx >> 5)
	if ei >= g.M() {
		return 0, 0, false
	}
	e := g.Edges()[ei]
	from, to := e.U, e.V
	if idx&1 == 1 {
		from, to = e.V, e.U
	}
	if to != rt.ID() {
		return 0, 0, false
	}
	return rt.Port(from), int(idx >> 1 & 0xF), true
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
		sc := scratches.Of(rt)
		sc.sim = simulator{
			TreeNode: TreeNode{RT: rt, Trees: sh.Views[rt.ID()], Depth: rsim.MaxDepth(sh.Views), Rep: cfg.Rep, Scratch: &sc.Scratch},
			cfg:      cfg,
			sh:       sh,
			sc:       sc,
		}
		w := &sc.w
		if w.ExchangePortsFn == nil {
			w.ExchangePortsFn = sc.sim.exchange
		}
		w.Rebind(rt)
		w.ShadowShared = sh.Payload
		payload(w)
	}
}

// simulator holds one node's compiler state.
type simulator struct {
	TreeNode
	cfg   Config
	sh    *Shared
	round int
	sc    *nodeScratch
}

// nodeScratch is one node's compiler buffers. The run's context keeps
// them across its runs (see congest.NodeScratch), and every use rewrites
// them from empty, so no run reads what an earlier run left.
type nodeScratch struct {
	Scratch
	sim       simulator              // the node's compiler state, rewritten per run
	w         congest.WrappedRuntime // the payload's runtime over sim, rebound per run
	in        []congest.Msg          // the payload's port inbox, reused per round
	sent, est []PackedMsg            // per port: the message sent, the estimate of the one received
	settled   []bool                 // per port: applyCorrections has decided the estimate
	samplers  sketch.L0Images        // per-tree ℓ0 sampler images, reused per iteration
}

var scratches = congest.NewNodeScratch[nodeScratch]()

// exchange simulates one payload round: raw exchange, then mismatch
// correction (Steps 1-3 of Section 3.2.2). out is the payload's port
// outbox; the returned slice is its port inbox, owned by the simulator.
func (s *simulator) exchange(out []congest.Msg) []congest.Msg {
	for p, m := range out {
		if len(m) > MaxPayloadBytes {
			panic(fmt.Sprintf("resilient: payload message to %d has %d bytes, max %d", s.RT.Neighbor(p), len(m), MaxPayloadBytes))
		}
	}
	sc := s.sc
	if deg := s.RT.Degree(); len(sc.in) != deg {
		sc.in = make([]congest.Msg, deg)
		sc.sent = make([]PackedMsg, deg)
		sc.est = make([]PackedMsg, deg)
		sc.settled = make([]bool, deg)
	}
	// Step 1: single-round message exchange.
	pout := s.RT.OutBuf()
	clear(sc.sent)
	for p, m := range out {
		if m != nil {
			pout[p] = m
			sc.sent[p] = PackPayload(m)
		}
	}
	for p, m := range s.RT.ExchangePorts(pout) {
		sc.est[p] = PackPayload(m)
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
			corr, decoded = s.sparseIteration()
		} else {
			corr, decoded = s.l0Iteration(j)
		}
		if decoded {
			s.applyCorrections(corr)
		}
		if s.cfg.TraceFn != nil {
			s.cfg.TraceFn(s.round, j, len(corr))
		}
	}
	s.round++

	// Materialize corrected inbox.
	for p, e := range sc.est {
		sc.in[p] = UnpackPayload(e)
	}
	return sc.in
}

// localStream feeds this node's turnstile stream into upd, port by port:
// sent messages with +1, current estimates with -1 (Section 3.2.2 Step 2).
// Each iteration streams once, into every tree's sketches (see
// sketch.RecoveryImages.Build), and the stream has at most 2·Degree updates.
func (s *simulator) localStream(upd func(e sketch.Elem, f int64)) {
	me := s.RT.ID()
	for p, e := range s.sc.sent {
		if e.Present {
			upd(sketch.Pack(DirIndex(s.sh.G, me, s.RT.Neighbor(p), e.Length), e.Data), 1)
		}
	}
	for p, e := range s.sc.est {
		if e.Present {
			upd(sketch.Pack(DirIndex(s.sh.G, s.RT.Neighbor(p), me, e.Length), e.Data), -1)
		}
	}
}

// applyCorrections rewrites the estimates per the broadcast list. The last
// plus entry for an incoming edge replaces the estimate with the true
// message; for an edge with no plus entry, the last minus entry deletes the
// estimate if it equals it.
func (s *simulator) applyCorrections(corr []correction) {
	est, settled := s.sc.est, s.sc.settled
	clear(settled)
	for _, c := range corr {
		if p, l, ok := IncomingPort(s.RT, s.sh.G, c.idx); ok && c.plus {
			est[p] = PackedMsg{Present: true, Data: c.data, Length: l}
			settled[p] = true
		}
	}
	for i := len(corr) - 1; i >= 0; i-- {
		c := corr[i]
		p, l, ok := IncomingPort(s.RT, s.sh.G, c.idx)
		if !ok || c.plus || settled[p] {
			continue
		}
		settled[p] = true
		if est[p] == (PackedMsg{Present: true, Data: c.data, Length: l}) {
			est[p] = PackedMsg{}
		}
	}
}
