package rewind

import (
	"math/rand"
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/rsim"
	"mobilecongest/internal/sketch"
	"mobilecongest/internal/vote"
)

// --- payload replay ---

// stopReplay unwinds the payload goroutine once the wanted round's outbox is
// captured.
type stopReplay struct{}

// replayRuntime feeds the payload its incoming transcripts and captures the
// outbox of round `stopAt`. The embedded WrappedRuntime gives payloads both
// exchange forms over one port-indexed simulation, exchange.
type replayRuntime struct {
	congest.WrappedRuntime
	sim      *rewindSim
	stopAt   int
	captured []congest.Msg
	rng      *rand.Rand
	output   any
	done     bool
}

// Rand returns the replay-stable payload randomness.
func (r *replayRuntime) Rand() *rand.Rand { return r.rng }

// Shared exposes the payload's own artifact, nil included: falling back to
// the base runtime would hand the payload the compiler's artifact.
func (r *replayRuntime) Shared() any { return r.sim.sh.Payload }

// SetOutput captures the payload output.
func (r *replayRuntime) SetOutput(v any) { r.output = v }

// exchange serves transcript rounds locally as the port inbox and captures
// the stop round's port-indexed outbox.
func (r *replayRuntime) exchange(out []congest.Msg) []congest.Msg {
	round := r.Round()
	if round == r.stopAt {
		r.captured = out
		panic(stopReplay{})
	}
	in := r.sim.replayIn
	if len(in) != r.Degree() {
		in = make([]congest.Msg, r.Degree())
		r.sim.replayIn = in
	}
	for p, t := range r.sim.piIn {
		in[p] = nil
		if round < len(t) {
			in[p] = resilient.UnpackPayload(t[round])
		}
	}
	return in
}

// replay re-runs the payload against the committed transcripts and returns
// the port outbox it would send in round gamma (all absent if the payload
// terminates first), plus its output and termination flag.
func (s *rewindSim) replay(payload congest.Protocol, gamma int) ([]resilient.PackedMsg, any, bool) {
	rr := &replayRuntime{
		sim:    s,
		stopAt: gamma,
		rng:    rand.New(rand.NewSource(s.payloadSeed)),
	}
	rr.Base, rr.ExchangePortsFn = s.RT, rr.exchange
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopReplay); !ok {
					panic(r)
				}
			}
		}()
		payload(rr)
		rr.done = true
	}()
	out := make([]resilient.PackedMsg, s.RT.Degree())
	for p, m := range rr.captured {
		if len(m) > resilient.MaxPayloadBytes {
			panic("rewind: payload message exceeds 8 bytes")
		}
		out[p] = resilient.PackPayload(m)
	}
	return out, rr.output, rr.done
}

// --- round-initialization phase ---

// initMsg is the paper's M_i(u,v) tuple.
type initMsg struct {
	present bool
	data    uint64
	length  uint64
	seed    uint64
	hash    uint64
	gamma   uint64
}

const initWords = 4

func (m initMsg) encode() [initWords]uint64 {
	w3 := m.length & 0xF << 48
	if m.present {
		w3 |= 1 << 56
	}
	w3 |= m.gamma & 0xFFFFFFFF
	return [initWords]uint64{m.data, m.seed, m.hash, w3}
}

func decodeInitMsg(w [initWords]uint64) initMsg {
	return initMsg{
		data:    w[0],
		seed:    w[1],
		hash:    w[2],
		present: w[3]>>56&1 == 1,
		length:  w[3] >> 48 & 0xF,
		gamma:   w[3] & 0xFFFFFFFF,
	}
}

// roundInit repeats the init tuple InitRep times per port and majority-
// votes per word position (per-word voting matches the word-level
// correction that follows). nextOut and myHash are per port, like the
// result.
func (s *rewindSim) roundInit(nextOut []resilient.PackedMsg, seed uint64, myHash []uint64, gamma int, done bool) []initMsg {
	deg := len(nextOut)
	outMsgs := make([]congest.Msg, deg)
	for p, e := range nextOut {
		m := initMsg{seed: seed, hash: myHash[p], gamma: uint64(gamma)}
		if e.Present && !done {
			m.present = true
			m.data = e.Data
			m.length = uint64(e.Length)
		}
		enc := m.encode()
		s.lastInitSent[p] = enc
		var buf congest.Msg
		for _, w := range enc {
			buf = congest.PutU64(buf, w)
		}
		outMsgs[p] = buf
	}
	votes := make([][initWords]map[uint64]int, deg)
	for p := range votes {
		for i := range votes[p] {
			votes[p][i] = make(map[uint64]int)
		}
	}
	var ws []uint64
	for r := 0; r < s.cfg.InitRep; r++ {
		out := s.RT.OutBuf()
		for p, m := range outMsgs {
			out[p] = m.Clone()
		}
		in := s.RT.ExchangePorts(out)
		for p, m := range in {
			if m == nil {
				continue
			}
			ws = congest.AppendWords64(ws[:0], m)
			for i := 0; i < initWords && i < len(ws); i++ {
				votes[p][i][ws[i]]++
			}
		}
	}
	result := make([]initMsg, deg)
	for p := range result {
		var ws [initWords]uint64
		for i := range ws {
			ws[i], _ = vote.Winner(votes[p][i])
		}
		result[p] = decodeInitMsg(ws)
	}
	return result
}

// --- message-correcting phase (Lemma 4.2) ---

// fixBytes is the wire size of one fix: a word's directed-edge index
// (resilient.DirIndex, tagged with the word's position) and its true value.
const fixBytes = 12

// messageCorrect runs the d-message-correction procedure on the word-level
// view of the per-port init tuples: sent words stream with +1, received
// (voted) words with -1, and Section 3's sparse-recovery round
// (resilient.TreeNode.SparseCorrect) recovers and broadcasts the true
// words, which replace the voted ones. It rewrites recv in place.
func (s *rewindSim) messageCorrect(recv []initMsg) []initMsg {
	me, g := s.RT.ID(), s.sh.G
	sparsity := 8*s.cfg.F + 8
	stream := func(upd func(e sketch.Elem, f int64)) {
		for p, sent := range s.lastInitSent {
			v := s.RT.Neighbor(p)
			for w, val := range sent {
				upd(sketch.Pack(resilient.DirIndex(g, me, v, w), val), 1)
			}
			for w, val := range recv[p].encode() {
				upd(sketch.Pack(resilient.DirIndex(g, v, me, w), val), -1)
			}
		}
	}
	if got, ok := s.SparseCorrect(sparsity, stream, encodeFixes, 2+fixBytes*sparsity); ok {
		s.applyFixes(recv, decodeFixes(got))
	}
	return recv
}

// applyFixes replaces each word of recv that a fix addresses to this node
// with the fix's true value. A fix for another node's edge, or for a word
// past the tuple's end, changes nothing.
func (s *rewindSim) applyFixes(recv []initMsg, fixes []fixItem) {
	words := make([][initWords]uint64, len(recv))
	for p, m := range recv {
		words[p] = m.encode()
	}
	for _, f := range fixes {
		if p, w, ok := resilient.IncomingPort(s.RT, s.sh.G, f.idx); ok && w < initWords {
			words[p][w] = f.data
		}
	}
	for p, ws := range words {
		recv[p] = decodeInitMsg(ws)
	}
}

// fixItem is one entry of the broadcast fix list: the true value of one
// word of one directed init tuple.
type fixItem struct {
	idx  uint32
	data uint64
}

// encodeFixes encodes the recovered items' true words, sorted, as the fix
// list.
func encodeFixes(items []sketch.Item) []byte {
	var fixes []fixItem
	for _, it := range items {
		if it.Freq <= 0 {
			continue // only the true (positive) words repair estimates
		}
		idx, payload := it.E.Unpack()
		fixes = append(fixes, fixItem{idx: idx, data: payload})
	}
	sort.Slice(fixes, func(i, j int) bool {
		if fixes[i].idx != fixes[j].idx {
			return fixes[i].idx < fixes[j].idx
		}
		return fixes[i].data < fixes[j].data
	})
	out := []byte{byte(len(fixes) >> 8), byte(len(fixes))}
	for _, f := range fixes {
		out = congest.PutU32(out, f.idx)
		out = congest.PutU64(out, f.data)
	}
	return out
}

func decodeFixes(b []byte) []fixItem {
	if len(b) < 2 {
		return nil
	}
	n := int(b[0])<<8 | int(b[1])
	var out []fixItem
	off := 2
	for i := 0; i < n && off+fixBytes <= len(b); i++ {
		out = append(out, fixItem{idx: congest.U32(b[off:]), data: congest.U64(b[off+4:])})
		off += fixBytes
	}
	return out
}

// --- rewind-if-error phase ---

// aggregateState computes GoodState = AND over nodes and maxLen = max over
// nodes, via per-tree upcast+downcast with across-tree majority at every
// node (the Pi_j protocols of Section 4.1).
func (s *rewindSim) aggregateState(goodLocal, myLen uint64) (good uint64, maxLen uint64) {
	k := len(s.Trees)
	locals := make([][]byte, k)
	enc := congest.PutU64(congest.PutU64(nil, goodLocal), myLen)
	for j := 0; j < k; j++ {
		locals[j] = enc
	}
	// Every tree shares enc as its local, so the merge must not fold into
	// its first argument: it builds each result in fresh storage.
	merge := func(_ int, a, b []byte) []byte {
		ga, la := congest.U64(a), congest.U64(a[8:])
		gb, lb := congest.U64(b), congest.U64(b[8:])
		g := ga
		if gb < g {
			g = gb
		}
		l := la
		if lb > l {
			l = lb
		}
		return congest.PutU64(congest.PutU64(nil, g), l)
	}
	rootAggs := rsim.ConvergecastUp(s.RT, &s.Out, s.Trees, locals, merge, s.Depth, s.Rep)
	got := rsim.BroadcastDown(s.RT, &s.Out, s.Trees, rootAggs, s.Depth, s.Rep)
	votes := make(map[[2]uint64]int)
	for _, m := range got {
		if len(m) >= 16 {
			votes[[2]uint64{congest.U64(m), congest.U64(m[8:])}]++
		}
	}
	best, bestCnt := vote.WinnerFunc(votes, func(a, b [2]uint64) bool {
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	if 2*bestCnt <= k {
		// No majority: treat as a bad state (forces a conservative hold).
		return 0, myLen + 1
	}
	return best[0], best[1]
}
