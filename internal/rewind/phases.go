package rewind

import (
	"math/rand"
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
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
	nbs := r.Neighbors()
	in := r.sim.replayIn
	if len(in) != len(nbs) {
		in = make([]congest.Msg, len(nbs))
		r.sim.replayIn = in
	}
	for p, v := range nbs {
		in[p] = nil
		if t := r.sim.piIn[v]; round < len(t) && t[round].present {
			in[p] = unpackEntry(t[round])
		}
	}
	return in
}

func unpackEntry(e entry) congest.Msg {
	m := make(congest.Msg, e.length)
	v := e.data
	for i := e.length - 1; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

func packMsg(m congest.Msg) entry {
	var v uint64
	l := len(m)
	if l > 8 {
		l = 8
	}
	for i := 0; i < l; i++ {
		v = v<<8 | uint64(m[i])
	}
	return entry{present: true, data: v, length: l}
}

// replay re-runs the payload against the committed transcripts and returns
// the outbox it would send in round gamma (empty if the payload terminates
// first), plus its output and termination flag.
func (s *rewindSim) replay(payload congest.Protocol, gamma int) (map[graph.NodeID]entry, any, bool) {
	rr := &replayRuntime{
		sim:    s,
		stopAt: gamma,
		rng:    rand.New(rand.NewSource(s.payloadSeed)),
	}
	rr.Base, rr.ExchangePortsFn = s.rt, rr.exchange
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
	out := make(map[graph.NodeID]entry, len(rr.captured))
	for p, m := range rr.captured {
		if m == nil {
			continue
		}
		if len(m) > 8 {
			panic("rewind: payload message exceeds 8 bytes")
		}
		out[rr.Neighbor(p)] = packMsg(m)
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

func (m initMsg) encode() []uint64 {
	w3 := m.length & 0xF << 48
	if m.present {
		w3 |= 1 << 56
	}
	w3 |= m.gamma & 0xFFFFFFFF
	return []uint64{m.data, m.seed, m.hash, w3}
}

func decodeInitMsg(w []uint64) initMsg {
	var m initMsg
	if len(w) < initWords {
		return m
	}
	m.data = w[0]
	m.seed = w[1]
	m.hash = w[2]
	m.present = w[3]>>56&1 == 1
	m.length = w[3] >> 48 & 0xF
	m.gamma = w[3] & 0xFFFFFFFF
	return m
}

// roundInit repeats the init tuple InitRep times per neighbour and majority-
// votes per word position (per-word voting matches the word-level
// correction that follows).
func (s *rewindSim) roundInit(nextOut map[graph.NodeID]entry, seed uint64, myHash map[graph.NodeID]uint64, gamma int, done bool) map[graph.NodeID]initMsg {
	nbs := s.rt.Neighbors()
	outMsgs := make([]congest.Msg, len(nbs)) // per port
	for p, v := range nbs {
		m := initMsg{seed: seed, hash: myHash[v], gamma: uint64(gamma)}
		if e, ok := nextOut[v]; ok && e.present && !done {
			m.present = true
			m.data = e.data
			m.length = uint64(e.length)
		}
		enc := m.encode()
		s.lastInitSent[v] = enc
		var buf congest.Msg
		for _, w := range enc {
			buf = congest.PutU64(buf, w)
		}
		outMsgs[p] = buf
	}
	votes := make([][initWords]map[uint64]int, len(nbs))
	for p := range votes {
		for i := range votes[p] {
			votes[p][i] = make(map[uint64]int)
		}
	}
	var ws []uint64
	for r := 0; r < s.cfg.InitRep; r++ {
		out := s.rt.OutBuf()
		for p, m := range outMsgs {
			out[p] = m.Clone()
		}
		in := s.rt.ExchangePorts(out)
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
	result := make(map[graph.NodeID]initMsg, len(nbs))
	for p, v := range nbs {
		var ws [initWords]uint64
		for i := 0; i < initWords; i++ {
			ws[i], _ = vote.Winner(votes[p][i])
		}
		result[v] = decodeInitMsg(ws[:])
	}
	return result
}

// --- message-correcting phase (Lemma 4.2) ---

// corrWord identifies one word of one directed init tuple.
func corrWordIndex(g *graph.Graph, from, to graph.NodeID, word int) uint32 {
	ei := g.EdgeIndex(from, to)
	d := uint32(0)
	if from > to {
		d = 1
	}
	return uint32(ei)<<5 | uint32(word&0xF)<<1 | d
}

// messageCorrect runs the d-message-correction procedure on the word-level
// view of the init tuples: sent words stream with +1, received (voted)
// words with -1; the sparse-recovery pipeline of Section 3 recovers and
// broadcasts the corrections.
func (s *rewindSim) messageCorrect(recv map[graph.NodeID]initMsg) map[graph.NodeID]initMsg {
	me := s.rt.ID()
	nbs := s.rt.Neighbors()
	k := len(s.trees)
	sparsity := 8*s.cfg.F + 8
	sc := s.scratch()

	// Broadcast the iteration seed from the packing root.
	var seedMsg []byte
	if s.isRoot() {
		seedMsg = congest.PutU64(nil, s.rt.Rand().Uint64())
	}
	seedPlan := resilient.NewECCPlan(k, 8)
	seedBytes, seedOK := resilient.ECCSafeBroadcast(s.rt, &sc.out, s.trees, seedPlan, seedMsg, s.depth, s.cfg.Rep)
	seed := congest.U64(seedBytes)

	// The word stream: what I sent this phase (re-encoded) and what I
	// received after voting.
	stream := func(upd func(e sketch.Elem, f int64)) {
		for _, v := range nbs {
			sentWords := s.lastInitSent[v]
			for w, val := range sentWords {
				upd(sketch.Pack(corrWordIndex(s.sh.G, me, v, w), val), 1)
			}
			rw := recv[v].encode()
			for w, val := range rw {
				upd(sketch.Pack(corrWordIndex(s.sh.G, v, me, w), val), -1)
			}
		}
	}
	seeds := resilient.TreeSeeds(s.rt.Memo(), seed, k)
	// Each tree owns its image, so the merge folds child sketches into it
	// in place.
	locals := sc.sketches.Build(seeds, sparsity, stream)
	size := sketch.EncodedSize(sparsity)
	merge := func(_ int, a, b []byte) []byte { return sketch.MergeEncoded(a, b, size) }
	rootAggs := rsim.ConvergecastUp(s.rt, &sc.out, s.trees, locals, merge, s.depth, s.cfg.Rep)

	// Root: decode per tree, majority across trees, broadcast.
	type fix struct {
		idx  uint32
		data uint64
	}
	var corrMsg []byte
	if s.isRoot() && seedOK {
		votes := make(map[string]int)
		for j, agg := range rootAggs {
			if agg == nil {
				continue
			}
			sc.rec.Load(seeds[j], sparsity, agg)
			items, ok := sc.rec.DecodeWith(&sc.work)
			if !ok {
				continue
			}
			votes[string(encodeFixes(items))]++
		}
		best, bestCnt := vote.Winner(votes)
		if 2*bestCnt > k {
			corrMsg = []byte(best)
		} else {
			corrMsg = encodeFixes(nil)
		}
	} else if s.isRoot() {
		corrMsg = encodeFixes(nil)
	}
	plan := resilient.NewECCPlan(k, 2+12*(sparsity))
	got, ok := resilient.ECCSafeBroadcast(s.rt, &sc.out, s.trees, plan, corrMsg, s.depth, s.cfg.Rep)
	out := make(map[graph.NodeID]initMsg, len(nbs))
	for v, m := range recv {
		out[v] = m
	}
	if !ok {
		return out
	}
	// Apply plus-entries addressed to me: replace the voted word.
	words := make(map[graph.NodeID][initWords]uint64, len(nbs))
	for _, v := range nbs {
		var ws [initWords]uint64
		copy(ws[:], out[v].encode())
		words[v] = ws
	}
	for _, f := range decodeFixes(got) {
		ei := int(f.idx >> 5)
		word := int(f.idx >> 1 & 0xF)
		dirBit := int(f.idx & 1)
		if ei < 0 || ei >= s.sh.G.M() || word >= initWords {
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
		ws := words[from]
		ws[word] = f.data
		words[from] = ws
	}
	for _, v := range nbs {
		ws := words[v]
		out[v] = decodeInitMsg(ws[:])
	}
	return out
}

type fixItem struct {
	idx  uint32
	data uint64
}

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
	for i := 0; i < n && off+12 <= len(b); i++ {
		out = append(out, fixItem{idx: congest.U32(b[off:]), data: congest.U64(b[off+4:])})
		off += 12
	}
	return out
}

func (s *rewindSim) isRoot() bool {
	for _, tv := range s.trees {
		if tv.Depth == 0 {
			return true
		}
	}
	return false
}

// --- rewind-if-error phase ---

// aggregateState computes GoodState = AND over nodes and maxLen = max over
// nodes, via per-tree upcast+downcast with across-tree majority at every
// node (the Pi_j protocols of Section 4.1).
func (s *rewindSim) aggregateState(goodLocal, myLen uint64) (good uint64, maxLen uint64) {
	k := len(s.trees)
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
	sc := s.scratch()
	rootAggs := rsim.ConvergecastUp(s.rt, &sc.out, s.trees, locals, merge, s.depth, s.cfg.Rep)
	got := rsim.BroadcastDown(s.rt, &sc.out, s.trees, rootAggs, s.depth, s.cfg.Rep)
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
