// Package adversary implements the adversarial settings of Section 1.4:
// static and mobile eavesdroppers (passive, view-recording) and static,
// mobile, and round-error-rate byzantine adversaries (active, message-
// corrupting), together with the edge-selection strategies the experiments
// exercise. All adversaries are deterministic given their seed and know the
// topology and the algorithm, but never the nodes' private randomness —
// exactly the oblivious-to-randomness model of the paper.
//
// Every adversary here is slot-native: it reads and corrupts the round
// through the engine's congest.RoundTraffic view, so adversarial rounds
// never materialize a traffic map. All adversaries also implement
// congest.RunResetter, so a single instance is reusable across repeated runs
// and sweep cells with per-run determinism. The seeded ones (Byzantine and
// the strategy-driven Eavesdropper) also take a new seed with Reseed: the
// next ResetRun restarts their kept generator from it (congest.SeededRand),
// so an instance kept across sweep cells draws exactly as a fresh one built
// with the cell's seed, without rebuilding its source or scratch.
package adversary

import (
	"math/rand"
	"slices"
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// Observation is one eavesdropped directed message.
type Observation struct {
	Round int
	Edge  graph.DirEdge
	Data  congest.Msg
}

// Eavesdropper passively records the traffic on f edges per round. With a
// nil schedule it picks edges by strategy; with a fixed schedule it follows
// it (used to replay identical schedules across runs for the
// indistinguishability experiments).
type Eavesdropper struct {
	g        *graph.Graph
	f        int
	seed     int64
	gen      congest.SeededRand
	rng      *rand.Rand     // gen restarted from seed; nil until the run's first draw
	schedule [][]graph.Edge // schedule[i] = edges controlled in round i (cycled)
	view     []Observation
	slab     []byte // the run's observed bytes; view's Data are views of it
	static   bool
	fixed    []graph.Edge // chosen lazily for static mode
	draw     edgeDraw     // randomEdges' scratch; the static set is a copy
}

var (
	_ congest.Adversary      = (*Eavesdropper)(nil)
	_ congest.PerRoundBudget = (*Eavesdropper)(nil)
	_ congest.RunResetter    = (*Eavesdropper)(nil)
)

// NewMobileEavesdropper listens on f fresh random edges every round.
func NewMobileEavesdropper(g *graph.Graph, f int, seed int64) *Eavesdropper {
	return &Eavesdropper{g: g, f: f, seed: seed}
}

// NewStaticEavesdropper listens on one fixed random set of f edges.
func NewStaticEavesdropper(g *graph.Graph, f int, seed int64) *Eavesdropper {
	e := NewMobileEavesdropper(g, f, seed)
	e.static = true
	return e
}

// NewScheduledEavesdropper follows an explicit per-round schedule (cycled if
// the run outlasts it).
func NewScheduledEavesdropper(g *graph.Graph, schedule [][]graph.Edge) *Eavesdropper {
	f := 0
	for _, s := range schedule {
		if len(s) > f {
			f = len(s)
		}
	}
	return &Eavesdropper{g: g, f: f, schedule: schedule}
}

// PerRoundEdges implements congest.PerRoundBudget. Eavesdroppers never
// modify traffic, so the budget is vacuous, but declaring it documents f.
func (a *Eavesdropper) PerRoundEdges() int { return a.f }

// ResetRun implements congest.RunResetter: it restarts the adversary's
// randomness from its seed (at the run's first draw) and drops the previous
// run's view and static edge set, so runs from one instance are
// independent and identically distributed. The view's storage is kept for
// the next run, which overwrites it.
func (a *Eavesdropper) ResetRun() {
	a.rng = nil
	a.view = a.view[:0]
	a.slab = a.slab[:0]
	a.fixed = nil
}

// Reseed sets the seed the next run starts from: after Reseed(s) and
// ResetRun, the instance listens exactly as one built with seed s.
func (a *Eavesdropper) Reseed(seed int64) { a.seed = seed }

// rand returns the run's generator, restarting it from the seed on the
// run's first draw.
func (a *Eavesdropper) rand() *rand.Rand {
	if a.rng == nil {
		a.rng = a.gen.Restart(a.seed)
	}
	return a.rng
}

// ControlledEdges returns the edges the adversary listens on in the given
// round. A mobile eavesdropper's result is valid until its next call.
func (a *Eavesdropper) ControlledEdges(round int) []graph.Edge {
	switch {
	case a.schedule != nil:
		if len(a.schedule) == 0 {
			return nil
		}
		return a.schedule[round%len(a.schedule)]
	case a.static:
		if a.fixed == nil {
			a.fixed = slices.Clone(a.draw.randomEdges(a.g, a.f, a.rand()))
		}
		return a.fixed
	default:
		return a.draw.randomEdges(a.g, a.f, a.rand())
	}
}

// Intercept implements congest.Adversary: it records the messages on the
// controlled edges' slots and delivers the traffic unchanged. Each
// observation's bytes are copied into the run's slab; a slab that must
// grow moves to a new array, so earlier observations keep their bytes.
func (a *Eavesdropper) Intercept(round int, tr *congest.RoundTraffic) {
	for _, e := range a.ControlledEdges(round) {
		fwd, bwd := tr.EdgeSlots(e)
		for _, s := range [2]int32{fwd, bwd} {
			if s < 0 {
				continue
			}
			if m := tr.Get(s); m != nil {
				start := len(a.slab)
				a.slab = append(a.slab, m...)
				data := a.slab[start:len(a.slab):len(a.slab)]
				a.view = append(a.view, Observation{Round: round, Edge: tr.DirEdge(s), Data: data})
			}
		}
	}
}

// View returns everything the eavesdropper saw in its current or last run.
// The observations and their Data are valid until the instance's next run,
// which reuses their storage: copy what must outlive it.
func (a *Eavesdropper) View() []Observation { return a.view }

// ViewBytes flattens the view into a canonical byte string for
// distribution-comparison tests. It reads View, so call it before the
// instance's next run; the returned bytes are the caller's.
func (a *Eavesdropper) ViewBytes() []byte {
	obs := make([]Observation, len(a.view))
	copy(obs, a.view)
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Round != obs[j].Round {
			return obs[i].Round < obs[j].Round
		}
		if obs[i].Edge.From != obs[j].Edge.From {
			return obs[i].Edge.From < obs[j].Edge.From
		}
		return obs[i].Edge.To < obs[j].Edge.To
	})
	var out []byte
	for _, o := range obs {
		out = congest.PutU32(out, uint32(o.Round))
		out = congest.PutU32(out, uint32(o.Edge.From))
		out = congest.PutU32(out, uint32(o.Edge.To))
		out = append(out, o.Data...)
	}
	return out
}

// edgeDraw is randomEdges' scratch: a permutation of the edge list and the
// selected edges, both reused from one selection to the next.
type edgeDraw struct {
	perm  []int
	edges []graph.Edge
}

// randomEdges returns f distinct uniformly random edges of g: the first f
// of a random permutation of its edge list. The result is d's until the
// next call on d.
func (d *edgeDraw) randomEdges(g *graph.Graph, f int, rng *rand.Rand) []graph.Edge {
	edges := g.Edges()
	if f >= len(edges) {
		d.edges = append(d.edges[:0], edges...)
		return d.edges
	}
	d.perm = permInto(d.perm[:0], len(edges), rng)
	d.edges = d.edges[:0]
	for _, p := range d.perm[:f] {
		d.edges = append(d.edges, edges[p])
	}
	return d.edges
}

// permInto appends a random permutation of [0, n) to dst and returns it. It
// draws from rng exactly as rng.Perm(n) does, so it returns the same
// permutation and leaves rng in the same state.
func permInto(dst []int, n int, rng *rand.Rand) []int {
	dst = slices.Grow(dst, n)[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}
