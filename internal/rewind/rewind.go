// Package rewind implements Section 4 of the paper: resilience to a bounded
// round-error *rate*, where the adversary corrupts at most f edges per round
// on average and may burst far beyond f in single rounds. The compiler runs
// r' = 5r global rounds, each with three phases:
//
//   - Round-Initialization: every node repeats, 2t times, its next payload
//     message together with a fresh fingerprint seed, the fingerprint of its
//     received transcript, and the transcript length; receivers majority-vote.
//   - Message-Correcting: the d-message-correction procedure of Lemma 4.2
//     (sparse-recovery sketches over the tree packing) repairs up to d = O(f)
//     surviving mismatches.
//   - Rewind-If-Error: transcript fingerprints are compared; the global
//     AND of "my transcripts check out" and the global maximum transcript
//     length are aggregated over every tree (RS-compiled, majority across
//     trees), and nodes extend, hold, or rewind their transcripts.
//
// The potential Phi(i) = min prefix agreement - max transcript length gains
// at least 1 in good global rounds and loses at most 3 in bad ones
// (Lemmas 4.4/4.9), so 5r global rounds guarantee r correct simulated rounds.
package rewind

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/hashfam"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/rsim"
	"mobilecongest/internal/sketch"
)

// Config parameterizes the rewind compiler.
type Config struct {
	// R is the payload's exact round count.
	R int
	// F is the average per-round corruption budget to defend against.
	F int
	// Rep is the slot repetition for tree subprotocols (t_RS).
	Rep int
	// InitRep is the repetition count of the round-initialization phase
	// (the paper's 2t); defaults to a multiple of Rep.
	InitRep int
	// GlobalRounds overrides the 5R default (useful in experiments).
	GlobalRounds int
}

func (c Config) withDefaults() Config {
	if c.Rep <= 0 {
		c.Rep = 5
	}
	if c.InitRep <= 0 {
		c.InitRep = 2 * c.Rep
	}
	if c.GlobalRounds <= 0 {
		c.GlobalRounds = 5 * c.R
	}
	return c
}

// Trace records one node's potential-relevant state per global round, for
// the F4 experiment.
type Trace struct {
	// Lens[i] is the node's transcript length after global round i.
	Lens []int
	// Rewinds counts DeleteLast events.
	Rewinds int
}

// Output bundles the payload output with the trace.
type Output struct {
	Payload any
	Trace   Trace
}

// Compile turns a payload protocol (messages <= 8 bytes, exchanging exactly
// cfg.R times at every node) into a protocol resilient to round-error rate
// cfg.F over the shared tree packing (Theorem 4.1). The run's Shared must
// be a *resilient.Shared.
func Compile(payload congest.Protocol, cfg Config) congest.Protocol {
	cfg = cfg.withDefaults()
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*resilient.Shared)
		if !ok {
			panic("rewind: run Config.Shared must be *resilient.Shared")
		}
		sim := newRewindSim(rt, cfg, sh)
		sim.run(payload)
	}
}

// entry is one transcript symbol: a received or sent message (possibly
// absent) for one neighbour in one simulated round.
type entry struct {
	present bool
	data    uint64
	length  int
}

func (e entry) words() []uint64 {
	p := uint64(0)
	if e.present {
		p = 1
	}
	return []uint64{p, e.data, uint64(e.length)}
}

type rewindSim struct {
	rt    congest.Runtime
	cfg   Config
	sh    *resilient.Shared
	trees []rsim.TreeView
	depth int

	// pi[v] is the outgoing transcript to neighbour v; piIn[v] the incoming
	// transcript estimate from v (the paper's pi and pi~).
	pi   map[graph.NodeID][]entry
	piIn map[graph.NodeID][]entry

	// payloadSeed makes payload replays deterministic.
	payloadSeed int64
	// lastInitSent records the init words sent in the current phase, the
	// "+1 side" of the correction stream.
	lastInitSent map[graph.NodeID][]uint64

	sc       *nodeScratch  // the node's buffers, fetched at first use (scratch)
	replayIn []congest.Msg // the replayed payload's port inbox, reused per round

	trace Trace
}

// nodeScratch is one node's compiler buffers. The run's context keeps
// them across its runs (see congest.NodeScratch), and every use rewrites
// them from empty, so no run reads what an earlier run left.
type nodeScratch struct {
	out       rsim.Outbox           // the node's rsim frames, kept across calls
	sketches  sketch.RecoveryImages // per-tree correction sketches, reused per phase
	rec, work sketch.Recovery       // the root's decode of one tree's aggregate
}

var scratches = congest.NewNodeScratch[nodeScratch]()

// scratch returns the node's buffers. Replay serves its rounds locally, so
// the first phase that reaches the network fetches them.
func (s *rewindSim) scratch() *nodeScratch {
	if s.sc == nil {
		s.sc = scratches.Of(s.rt)
	}
	return s.sc
}

func newRewindSim(rt congest.Runtime, cfg Config, sh *resilient.Shared) *rewindSim {
	s := &rewindSim{
		rt:           rt,
		cfg:          cfg,
		sh:           sh,
		trees:        sh.Views[rt.ID()],
		depth:        rsim.MaxDepth(sh.Views),
		pi:           make(map[graph.NodeID][]entry),
		piIn:         make(map[graph.NodeID][]entry),
		payloadSeed:  rt.Rand().Int63(),
		lastInitSent: make(map[graph.NodeID][]uint64),
	}
	return s
}

// gamma is the node's current transcript length (Invariant 1 keeps all of a
// node's transcripts equal length).
func (s *rewindSim) gamma() int {
	for _, v := range s.rt.Neighbors() {
		return len(s.pi[v])
	}
	return 0
}

// run drives the payload as a restartable pure function of the incoming
// transcripts: the payload's i-th outgoing messages depend only on rounds
// < i of its incoming transcripts, so re-running it against the current
// transcripts (with a fixed per-node randomness seed) yields the messages
// the paper's "m_i(u,v) according to A given pi~" denotes.
func (s *rewindSim) run(payload congest.Protocol) {
	nbs := s.rt.Neighbors()
	for g := 0; g < s.cfg.GlobalRounds; g++ {
		gamma := s.gamma()
		// Compute next messages by replaying the payload against the
		// current incoming transcripts.
		nextOut, outputs, done := s.replay(payload, gamma)
		_ = outputs
		// --- Round-Initialization phase ---
		seed := s.rt.Rand().Uint64()
		myHash := s.transcriptHash(seed)
		initMsgs := s.roundInit(nextOut, seed, myHash, gamma, done)
		// --- Message-Correcting phase ---
		corrected := s.messageCorrect(initMsgs)
		// --- Rewind-If-Error phase ---
		goodLocal := uint64(1)
		for _, v := range nbs {
			c, okc := corrected[v]
			if !okc {
				goodLocal = 0
				continue
			}
			// Verify the sender's view of my outgoing transcript... the
			// paper checks |pi~| == l' and hash agreement.
			if int(c.gamma) != gamma {
				goodLocal = 0
				continue
			}
			want := hashfam.NewFingerprint(c.seed).Hash64(transcriptWords(s.piIn[v]))
			if want != c.hash {
				goodLocal = 0
			}
		}
		goodState, maxLen := s.aggregateState(goodLocal, uint64(gamma))
		switch {
		case goodState == 1:
			for _, v := range nbs {
				c := corrected[v]
				s.piIn[v] = append(s.piIn[v], entry{present: c.present, data: c.data, length: int(c.length)})
				s.pi[v] = append(s.pi[v], nextOut[v])
			}
		case goodState == 0 && gamma == int(maxLen) && gamma > 0:
			for _, v := range nbs {
				s.piIn[v] = s.piIn[v][:len(s.piIn[v])-1]
				s.pi[v] = s.pi[v][:len(s.pi[v])-1]
			}
			s.trace.Rewinds++
		}
		s.trace.Lens = append(s.trace.Lens, s.gamma())
	}
	// Final output: replay the payload one last time against the final
	// transcripts.
	_, out, _ := s.replay(payload, s.gamma())
	s.rt.SetOutput(Output{Payload: out, Trace: s.trace})
}

// transcriptHash fingerprints all outgoing transcripts under seed. The
// paper fingerprints per-edge; hashing each edge's transcript separately and
// sending per-neighbour values is what roundInit transmits.
func (s *rewindSim) transcriptHash(seed uint64) map[graph.NodeID]uint64 {
	out := make(map[graph.NodeID]uint64, len(s.rt.Neighbors()))
	f := hashfam.NewFingerprint(seed)
	for _, v := range s.rt.Neighbors() {
		out[v] = f.Hash64(transcriptWords(s.pi[v]))
	}
	return out
}

func transcriptWords(t []entry) []uint64 {
	var w []uint64
	for _, e := range t {
		w = append(w, e.words()...)
	}
	return w
}
