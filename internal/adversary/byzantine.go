package adversary

import (
	"bytes"
	"math/rand"
	"slices"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Corruption mutates the two directed messages crossing a controlled edge
// (either may be nil when nothing was sent) and returns their replacements.
// Returning the inputs unchanged wastes the edge. The inputs are shared with
// the engine's round buffer and must not be mutated in place: write a
// replacement into tr.Alloc(n) (copy the input there first to change only
// part of it), or return an input as it is to replay it elsewhere. The
// engine copies the replacements into the delivered round, so they need
// live only until the round's Intercept returns. tr is the round's whole
// traffic, matching the all-powerful byzantine adversary of the paper.
type Corruption func(tr *congest.RoundTraffic, rng *rand.Rand, round int, e graph.Edge, fwd, bwd congest.Msg) (congest.Msg, congest.Msg)

// Selector picks which undirected edges to control this round, given the
// slot-native view of the round's traffic. st is the per-run selector state
// the owning adversary provides (and resets at every run start); stateless
// strategies ignore it. Selector values themselves must stay stateless —
// rotation cursors, load scratch, and the like belong in st, which is what
// makes one Selector value safely shareable across adversaries, repeated
// runs, and sweep cells. The returned slice may be scratch in st, valid
// until the next selection.
type Selector func(st *SelectorState, rng *rand.Rand, round int, g *graph.Graph, tr *congest.RoundTraffic, f int) []graph.Edge

// SelectorState is the per-run mutable state available to selection
// strategies. The owning Byzantine adversary zeroes it at every run start
// (ResetRun), so two runs with the same seed select identical edge
// sequences.
type SelectorState struct {
	// Rotation is the round-robin cursor used by rotating strategies
	// (SelectRotating and friends).
	Rotation int

	// SelectBusiest scratch: per-undirected-edge byte loads (-1 = edge not
	// seen this round) plus the indices touched, so clearing is O(touched).
	load        []int
	loadTouched []int32
	sel         []int32 // top-f candidate indices, best-first

	draw edgeDraw // SelectRandom's scratch; its result is valid for one round
}

// reset clears the per-run state, keeping the allocated scratch.
func (st *SelectorState) reset() {
	st.Rotation = 0
	// load entries are reset to -1 by SelectBusiest after every selection,
	// so only the cursor carries cross-round state.
}

// loadFor returns the per-undirected-edge load scratch for a graph with m
// edges, every entry -1 (untouched).
func (st *SelectorState) loadFor(m int) []int {
	if len(st.load) != m {
		st.load = make([]int, m)
		for i := range st.load {
			st.load[i] = -1
		}
	}
	return st.load
}

// Byzantine is an active adversary corrupting at most f edges per round
// (mobile), a fixed f-set (static), or a total budget (round-error rate).
type Byzantine struct {
	g       *graph.Graph
	f       int
	seed    int64
	gen     congest.SeededRand
	rng     *rand.Rand // gen restarted from seed; nil until the run's first draw
	corrupt Corruption
	select_ Selector
	st      SelectorState
	// static edge set, fixed after first selection when staticMode.
	staticMode bool
	fixed      []graph.Edge
	// totalBudget > 0 switches to round-error-rate accounting; perRound is
	// then only advisory for strategies (bursts may exceed it).
	totalBudget int
	spent       int
	burst       []int // burst[i] = edges to corrupt in round i (cycled), for bursty strategies
}

var (
	_ congest.Adversary   = (*Byzantine)(nil)
	_ congest.RunResetter = (*Byzantine)(nil)
)

// NewMobileByzantine corrupts f fresh edges every round using the given
// selector and corruption.
func NewMobileByzantine(g *graph.Graph, f int, seed int64, sel Selector, cor Corruption) *Byzantine {
	return &Byzantine{g: g, f: f, seed: seed, corrupt: cor, select_: sel}
}

// NewStaticByzantine corrupts one fixed set of f edges every round.
func NewStaticByzantine(g *graph.Graph, f int, seed int64, sel Selector, cor Corruption) *Byzantine {
	b := NewMobileByzantine(g, f, seed, sel, cor)
	b.staticMode = true
	return b
}

// NewRoundErrorRate corrupts at most total edge-rounds over the whole run,
// spending burst[i%len(burst)] edges in round i (Section 4's "f per round on
// average" adversary).
func NewRoundErrorRate(g *graph.Graph, total int, burst []int, seed int64, sel Selector, cor Corruption) *Byzantine {
	b := NewMobileByzantine(g, maxInt(burst), seed, sel, cor)
	b.totalBudget = total
	b.burst = burst
	return b
}

func maxInt(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// PerRoundEdges implements congest.PerRoundBudget for static/mobile modes.
func (b *Byzantine) PerRoundEdges() int {
	if b.totalBudget > 0 {
		// In total-budget mode the per-round bound is the largest burst.
		return maxInt(b.burst)
	}
	return b.f
}

// TotalEdgeRounds implements congest.TotalBudget when in round-error-rate
// mode (otherwise it returns a vacuous bound).
func (b *Byzantine) TotalEdgeRounds() int {
	if b.totalBudget > 0 {
		return b.totalBudget
	}
	return 1 << 40
}

// Spent reports how many edge-rounds have been corrupted so far.
func (b *Byzantine) Spent() int { return b.spent }

// ResetRun implements congest.RunResetter: it restarts the adversary's
// randomness from its seed and zeroes the spent budget, the static edge
// set, and the selector state (rotation cursors), so runs from one instance
// corrupt identical edge sequences for identical seeds. The generator
// restarts at the run's first draw.
func (b *Byzantine) ResetRun() {
	b.rng = nil
	b.st.reset()
	b.spent = 0
	b.fixed = nil
}

// Reseed sets the seed the next run starts from: after Reseed(s) and
// ResetRun, the instance corrupts exactly as one built with seed s.
func (b *Byzantine) Reseed(seed int64) { b.seed = seed }

// Intercept implements congest.Adversary: it corrupts the selected edges'
// messages by slot, within the round's budget.
func (b *Byzantine) Intercept(round int, tr *congest.RoundTraffic) {
	budget := b.f
	if b.totalBudget > 0 {
		budget = b.burst[round%len(b.burst)]
		if rem := b.totalBudget - b.spent; budget > rem {
			budget = rem
		}
	}
	if budget <= 0 {
		return
	}
	if b.rng == nil {
		b.rng = b.gen.Restart(b.seed)
	}
	var edges []graph.Edge
	if b.staticMode {
		if b.fixed == nil {
			b.fixed = slices.Clone(b.select_(&b.st, b.rng, round, b.g, tr, b.f))
		}
		edges = b.fixed
	} else {
		edges = b.select_(&b.st, b.rng, round, b.g, tr, budget)
	}
	if len(edges) > budget {
		edges = edges[:budget]
	}
	touched := 0
	for _, e := range edges {
		sf, sb := tr.EdgeSlots(e)
		fwd, bwd := tr.Get(sf), tr.Get(sb)
		nf, nb := b.corrupt(tr, b.rng, round, e, fwd, bwd)
		changed := false
		// bytes.Equal deliberately treats nil and empty alike: dropping a silent
		// direction (or "injecting" an empty message) is a no-op, not a
		// budget spend. Writes on edges the selector picked outside the
		// graph (sf/sb == -1, possible with SelectFixed's user-supplied
		// lists) go through SetEdge, which turns them into the run-aborting
		// non-edge injection error rather than a panic.
		if !bytes.Equal(nf, fwd) {
			changed = true
			if sf >= 0 {
				tr.Set(sf, nf)
			} else {
				tr.SetEdge(graph.DirEdge{From: e.U, To: e.V}, nf)
			}
		}
		if !bytes.Equal(nb, bwd) {
			changed = true
			if sb >= 0 {
				tr.Set(sb, nb)
			} else {
				tr.SetEdge(graph.DirEdge{From: e.V, To: e.U}, nb)
			}
		}
		if changed {
			touched++
		}
	}
	b.spent += touched
}
