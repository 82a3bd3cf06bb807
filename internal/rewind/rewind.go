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
	"mobilecongest/internal/hashfam"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/rsim"
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

type rewindSim struct {
	resilient.TreeNode
	cfg Config
	sh  *resilient.Shared

	// pi[p] is the outgoing transcript to the neighbour on port p; piIn[p]
	// the incoming transcript estimate from it (the paper's pi and pi~).
	pi, piIn [][]resilient.PackedMsg

	// payloadSeed makes payload replays deterministic.
	payloadSeed int64
	// lastInitSent[p] holds the init words sent on port p in the current
	// phase, the "+1 side" of the correction stream.
	lastInitSent [][initWords]uint64

	replayIn []congest.Msg // the replayed payload's port inbox, reused per round

	trace Trace
}

// scratches keeps each node's tree-subprotocol buffers across the runs of
// its context (see congest.NodeScratch).
var scratches = congest.NewNodeScratch[resilient.Scratch]()

func newRewindSim(rt congest.Runtime, cfg Config, sh *resilient.Shared) *rewindSim {
	deg := rt.Degree()
	return &rewindSim{
		TreeNode:     resilient.TreeNode{RT: rt, Trees: sh.Views[rt.ID()], Depth: rsim.MaxDepth(sh.Views), Rep: cfg.Rep, Scratch: scratches.Of(rt)},
		cfg:          cfg,
		sh:           sh,
		pi:           make([][]resilient.PackedMsg, deg),
		piIn:         make([][]resilient.PackedMsg, deg),
		payloadSeed:  rt.Rand().Int63(),
		lastInitSent: make([][initWords]uint64, deg),
	}
}

// gamma is the node's current transcript length (Invariant 1 keeps all of a
// node's transcripts equal length).
func (s *rewindSim) gamma() int {
	if len(s.pi) == 0 {
		return 0
	}
	return len(s.pi[0])
}

// run drives the payload as a restartable pure function of the incoming
// transcripts: the payload's i-th outgoing messages depend only on rounds
// < i of its incoming transcripts, so re-running it against the current
// transcripts (with a fixed per-node randomness seed) yields the messages
// the paper's "m_i(u,v) according to A given pi~" denotes.
func (s *rewindSim) run(payload congest.Protocol) {
	for g := 0; g < s.cfg.GlobalRounds; g++ {
		gamma := s.gamma()
		// Compute next messages by replaying the payload against the
		// current incoming transcripts.
		nextOut, _, done := s.replay(payload, gamma)
		// --- Round-Initialization phase ---
		seed := s.RT.Rand().Uint64()
		initMsgs := s.roundInit(nextOut, seed, s.transcriptHash(seed), gamma, done)
		// --- Message-Correcting phase ---
		corrected := s.messageCorrect(initMsgs)
		// --- Rewind-If-Error phase ---
		goodLocal := uint64(1)
		for p, c := range corrected {
			// Verify the sender's view of my outgoing transcript: the
			// paper checks |pi~| == l' and hash agreement.
			if int(c.gamma) != gamma || hashfam.NewFingerprint(c.seed).Hash64(transcriptWords(s.piIn[p])) != c.hash {
				goodLocal = 0
			}
		}
		goodState, maxLen := s.aggregateState(goodLocal, uint64(gamma))
		switch {
		case goodState == 1:
			for p, c := range corrected {
				s.piIn[p] = append(s.piIn[p], resilient.PackedMsg{Present: c.present, Data: c.data, Length: int(c.length)})
				s.pi[p] = append(s.pi[p], nextOut[p])
			}
		case goodState == 0 && gamma == int(maxLen) && gamma > 0:
			for p := range s.pi {
				s.piIn[p] = s.piIn[p][:len(s.piIn[p])-1]
				s.pi[p] = s.pi[p][:len(s.pi[p])-1]
			}
			s.trace.Rewinds++
		}
		s.trace.Lens = append(s.trace.Lens, s.gamma())
	}
	// Final output: replay the payload one last time against the final
	// transcripts.
	_, out, _ := s.replay(payload, s.gamma())
	s.RT.SetOutput(Output{Payload: out, Trace: s.trace})
}

// transcriptHash fingerprints each port's outgoing transcript under seed.
// The paper fingerprints per edge; these per-port values are what
// roundInit transmits.
func (s *rewindSim) transcriptHash(seed uint64) []uint64 {
	f := hashfam.NewFingerprint(seed)
	out := make([]uint64, len(s.pi))
	for p, t := range s.pi {
		out[p] = f.Hash64(transcriptWords(t))
	}
	return out
}

// transcriptWords lists each symbol of t as three words: presence, data
// and length.
func transcriptWords(t []resilient.PackedMsg) []uint64 {
	var w []uint64
	for _, e := range t {
		present := uint64(0)
		if e.Present {
			present = 1
		}
		w = append(w, present, e.Data, uint64(e.Length))
	}
	return w
}
