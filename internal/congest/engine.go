package congest

import (
	"errors"
	"fmt"
	"math/rand"

	"mobilecongest/internal/graph"
	"mobilecongest/internal/registry"
)

// Engine executes a protocol on every node of a configured network. There is
// one implementation, ShardEngine, registered under two names: every node is
// an iter.Pull coroutine, and every round is validated, collected,
// intercepted, and delivered through runCore, so all simulation semantics
// (round structure, adversary budget accounting, statistics, observer calls)
// are shared.
//
//   - "shard" (ShardEngine{}) steps contiguous CSR node shards in parallel on
//     a persistent worker pool — the engine for large graphs on multi-core
//     hosts. Pool and coroutines stay parked on the RunContext between runs.
//   - "step" (ShardEngine{Shards: 1}) resumes the same coroutines on the
//     calling goroutine alone. It is the default engine.
//
// A node runs only between its exchanges, so a protocol must not block on
// its own (channels, locks held across an exchange) waiting for another
// node.
//
// Runs are deterministic given Config.Seed, and every shard count MUST
// produce identical Results for identical Configs. The cross-engine
// equivalence tests enforce this against a test-only reference simulator
// written from the model's definition, which shares none of the engine's
// code.
type Engine interface {
	// Name is the registry key ("step", "shard").
	Name() string
	// Run executes proto on every node of cfg.Graph in a throwaway
	// RunContext; it is RunIn with a nil context.
	Run(cfg Config, proto Protocol) (*Result, error)
	// RunIn executes proto on every node of cfg.Graph, reusing rc's state
	// (rebinding it if cfg.Graph differs from the context's current graph).
	RunIn(rc *RunContext, cfg Config, proto Protocol) (*Result, error)
}

// Engines is the name-keyed engine registry: "step" and "shard". The root
// package's plan specs check engine names against it, and
// Engines.Get resolves them.
var Engines = func() *registry.Table[Engine] {
	t := registry.New[Engine]("congest", "engine")
	for _, e := range []Engine{ShardEngine{Shards: 1}, ShardEngine{}} {
		t.Register(e.Name(), e)
	}
	return t
}()

// nodeCore is the engine-independent per-node state backing Runtime.
// Engines embed it and supply only the barrier (ExchangePorts and the map
// compat Exchange over it).
type nodeCore struct {
	id        graph.NodeID
	neighbors []graph.NodeID
	rng       *rand.Rand // nil until the protocol's first Rand call (see Rand)
	rngSeed   int64
	rngStore  []*SeededRand // the context's per-node RNG cache (rc.rngs)
	input     []byte
	output    any
	round     int
	rc        *RunContext // the run's context: N and the run's Memo
	shared    any

	outBuf     []Msg // reusable port-indexed outbox (CSR sub-slice of the run's out slab)
	inBuf      []Msg // port-indexed inbox (CSR sub-slice of the run's in slab)
	outPending []Msg // slice handed to ExchangePorts, consumed at collection
	badTo      graph.NodeID
	badSend    bool // map compat Exchange addressed a non-neighbor; abort at collection
	// outLent says LendOut covers outPending; it is read and cleared with
	// it. It sits in badSend's tail padding, so it adds no bytes to a
	// nodeCore.
	outLent bool
}

func (s *nodeCore) ID() graph.NodeID          { return s.id }
func (s *nodeCore) N() int                    { return s.rc.g.N() }
func (s *nodeCore) Neighbors() []graph.NodeID { return s.neighbors }
func (s *nodeCore) Round() int                { return s.round }
func (s *nodeCore) Input() []byte             { return s.input }
func (s *nodeCore) SetOutput(v any)           { s.output = v }
func (s *nodeCore) Shared() any               { return s.shared }
func (s *nodeCore) Memo() *Memo               { return s.rc.runMemo() }

// Rand materializes the node's RNG on first use. Node seeds are drawn on
// demand: the run's first Rand call, on any node, draws every node's seed
// in node order from the run's seed (RunContext.seedNodes, once per run),
// so each node gets the stream an eager draw at run start would give it,
// and a run in which no node draws randomness (floodmax, bfs) never seeds
// the context's seeder. The RNG itself is built lazily too: a protocol
// that never draws skips the ~5KB rand source per node, the dominant setup
// allocation at large n. The constructed generator is cached on the
// context, and a later run that uses it restarts it (SeededRand), which
// copies a repeated seed's state instead of re-seeding. Safe under the
// concurrent engines: the seeds are written under the run's sync.Once,
// which every drawing node passes first, each node touches only its own
// rngStore slot, and run boundaries order cross-run access.
func (s *nodeCore) Rand() *rand.Rand {
	if s.rng == nil {
		s.rc.seedOnce.Do(s.rc.seedNodes)
		g := s.rngStore[s.id]
		if g == nil {
			g = new(SeededRand)
			s.rngStore[s.id] = g
		}
		s.rng = g.Restart(s.rngSeed)
	}
	return s.rng
}

func (s *nodeCore) Degree() int                 { return len(s.neighbors) }
func (s *nodeCore) Neighbor(p int) graph.NodeID { return s.neighbors[p] }
func (s *nodeCore) Port(v graph.NodeID) int     { return portIndex(s.neighbors, v) }
func (s *nodeCore) OutBuf() []Msg               { return s.outBuf }
func (s *nodeCore) LendOut()                    { s.outLent = true }

// mapOutToPorts folds a legacy map outbox into the port outbox. A send to a
// non-neighbor is recorded (smallest offender, for a deterministic error)
// and aborts the run at collection, exactly like the legacy map path. The
// buffer is cleared first: a map Exchange sends exactly the map's entries,
// never entries a protocol abandoned in OutBuf before switching forms.
func (s *nodeCore) mapOutToPorts(out map[graph.NodeID]Msg) []Msg {
	buf := s.outBuf
	clear(buf)
	for to, m := range out {
		if m == nil {
			continue
		}
		p := portIndex(s.neighbors, to)
		if p < 0 {
			if !s.badSend || to < s.badTo {
				s.badSend, s.badTo = true, to
			}
			continue
		}
		buf[p] = m
	}
	return buf
}

// emptyInbox is the canonical inbox of a silent round on the map compat
// path. It is shared by every node of every run — inbox maps are read-only
// (their payloads already alias the engine's round buffer), so handing out
// one immutable empty map instead of allocating a fresh one per silent node
// per round is safe.
var emptyInbox = map[graph.NodeID]Msg{}

// portsToMap materializes the map view of a port inbox — the lazy half of
// every compat Exchange (engine runtimes and WrappedRuntime alike): the map
// exists only for the nodes and rounds that ask for it. The map is
// read-only; silent rounds share emptyInbox.
func portsToMap(neighbors []graph.NodeID, in []Msg) map[graph.NodeID]Msg {
	cnt := 0
	for _, m := range in {
		if m != nil {
			cnt++
		}
	}
	if cnt == 0 {
		return emptyInbox
	}
	mm := make(map[graph.NodeID]Msg, cnt)
	for p, m := range in {
		if m != nil {
			mm[neighbors[p]] = m
		}
	}
	return mm
}

func (s *nodeCore) portsToMapIn(in []Msg) map[graph.NodeID]Msg {
	return portsToMap(s.neighbors, in)
}

// runCore holds the engine-independent run state: validated config, the
// context (which carries the flat edge layout, the reusable round buffer,
// the adversary boundary scratch and the run's statistics), the observers,
// and the adversary budget accounting. Keeping this logic in one place is what
// guarantees all engines count rounds, messages, and corrupted edge-rounds
// identically — and fire observers at identical points with identical
// views.
type runCore struct {
	cfg       Config
	rc        *RunContext
	g         *graph.Graph
	maxRounds int
	layout    *edgeLayout
	cur       *roundBuffer   // collection buffer for the in-flight round
	observers []Observer     // cfg.Observers
	perRound  PerRoundBudget // non-nil when the adversary declares one
	total     TotalBudget    // non-nil when the adversary declares one
	bwBits    int            // enforced bits/edge/round budget; 0 = unlimited
	round     int            // completed-round counter (the engine's round clock)
	corrupted int            // total corrupted edge-rounds, for TotalBudget enforcement
	view      RoundView      // reusable observer view (valid only during RoundDelivered)
	pool      *shardPool     // shard engine's worker pool; nil for single-shard runs
}

func newRunCore(rc *RunContext, cfg Config) (*runCore, error) {
	g := cfg.Graph
	if g == nil || g.N() == 0 {
		return nil, errors.New("congest: nil or empty graph")
	}
	if cfg.Inputs != nil && len(cfg.Inputs) != g.N() {
		return nil, fmt.Errorf("congest: %d inputs for %d nodes", len(cfg.Inputs), g.N())
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	if rc == nil {
		rc = NewRunContext()
	}
	rc.bind(g)
	rc.cur.reset()
	rc.resetSlabs()
	rc.stats = Stats{}
	clear(rc.delivered)
	c := &runCore{
		cfg:       cfg,
		rc:        rc,
		g:         g,
		maxRounds: maxRounds,
		layout:    rc.layout,
		cur:       rc.cur,
		observers: cfg.Observers,
	}
	if cfg.Bandwidth > 0 {
		c.bwBits = cfg.Bandwidth
		// Size the round arenas from slots × budget up front (capped — a
		// budgeted run rarely fills every slot every round).
		hint := min(rc.layout.slots()*((cfg.Bandwidth+7)/8), 1<<26)
		rc.cur.arenas[0].reserve(hint)
		rc.cur.arenas[1].reserve(hint)
	}
	if adv := cfg.Adversary; adv != nil {
		owner := unwrapAdversary(adv)
		c.perRound, _ = owner.(PerRoundBudget)
		c.total, _ = owner.(TotalBudget)
		if r, ok := owner.(RunResetter); ok {
			r.ResetRun()
		}
	}
	return c, nil
}

// unwrapAdversary returns the adversary the budget and run-reset interfaces
// are looked up on: Unwrap's result for wrappers that declare it (see
// Adversary), the adversary itself otherwise.
func unwrapAdversary(a Adversary) any {
	if u, ok := a.(interface{ Unwrap() any }); ok {
		return u.Unwrap()
	}
	return a
}

// newNodeCores derives the per-node state; see RunContext.nodeCores.
func (c *runCore) newNodeCores() []nodeCore {
	return c.rc.nodeCores(c.cfg)
}

// beginRound gates the round on the limit, resets the collection buffer, and
// fires RoundStart. When every node terminates during the subsequent
// collection the round is abandoned, so a run's final RoundStart may have no
// matching RoundDelivered — identically in every engine.
//
//mobilevet:hotpath
func (c *runCore) beginRound() error {
	if c.round >= c.maxRounds {
		//lint:ignore hotalloc round-limit abort; allocates only as the run ends
		return fmt.Errorf("%w (limit %d)", ErrRoundLimit, c.maxRounds)
	}
	c.cur.reset()
	for _, o := range c.observers {
		o.RoundStart(c.round)
	}
	return nil
}

// The collection validation errors collectShard returns. They are cold
// paths of their own so the allocating fmt calls stay off the hot path.
//
//mobilevet:coldpath abort path; a run allocates here at most once, while failing
func badSendError(nc *nodeCore) error {
	return fmt.Errorf("congest: node %d sent to non-neighbor %d", nc.id, nc.badTo)
}

//mobilevet:coldpath abort path; a run allocates here at most once, while failing
func badDegreeError(c *runCore, nc *nodeCore, out []Msg) error {
	return fmt.Errorf("congest: node %d sent on %d ports, degree %d", nc.id, len(out), c.layout.degree(nc.id))
}

//mobilevet:coldpath abort path; a run allocates here at most once, while failing
func badBandwidthError(c *runCore, nc *nodeCore, p int, m Msg) error {
	return fmt.Errorf("%w: node %d sent %d bits to neighbor %d, budget %d",
		ErrBandwidthExceeded, nc.id, len(m)*8, nc.neighbors[p], c.bwBits)
}

// outputs gathers the per-node protocol outputs in node order.
func outputs(cores []nodeCore) []any {
	out := make([]any, len(cores))
	for i := range cores {
		out[i] = cores[i].output
	}
	return out
}

// intercept runs the adversary boundary for the round: fault-free runs pass
// the collection buffer straight through; runs with an adversary take the
// interceptAdversary path. Split so the fault-free head stays on the
// hot-path allocation gate while the adversarial tail — whose budget-verdict
// errors allocate by design — sits behind the coldpath barrier.
func (c *runCore) intercept() ([]graph.Edge, error) {
	if c.cfg.Adversary == nil {
		return nil, nil
	}
	return c.interceptAdversary()
}

// interceptAdversary runs the adversary over the round's traffic and enforces
// its declared budgets, returning the corrupted edges. The delivered
// traffic is the collection buffer c.cur, corrupted in place by apply.
// The adversary sees the slot-native RoundTraffic view over the flat
// collection buffer and writes its corruptions into the view's reusable
// overlay; settle then diffs the overlay against the buffer — the buffer IS
// the pre-intercept snapshot — so the adversarial path allocates neither a
// per-round map nor a deep clone, and an adversary Setting a slot back to its
// original bytes is accounted exactly like one that never touched it.
// Ordering matters here: the per-round budget is checked on this round's
// touched set BEFORE it is folded into the total edge-round count, and both
// checks abort only on strictly exceeding the budget — an adversary landing
// exactly on its TotalBudget is within its rights and must complete the run
// with CorruptedEdgeRounds equal to the budget. A non-edge injection
// (possible only through SetEdge) aborts after the budget verdict.
//
//mobilevet:coldpath adversarial boundary; fault-free rounds return before it
func (c *runCore) interceptAdversary() ([]graph.Edge, error) {
	rt := c.rc.rt
	rt.begin(c.cur)
	c.cfg.Adversary.Intercept(c.round, rt)
	touched, badInject := rt.settle(c.pool)
	if c.perRound != nil && len(touched) > c.perRound.PerRoundEdges() {
		return nil, fmt.Errorf("%w: %d edges touched in round %d, budget %d",
			ErrBudgetExceeded, len(touched), c.round, c.perRound.PerRoundEdges())
	}
	c.corrupted += len(touched)
	if c.total != nil && c.corrupted > c.total.TotalEdgeRounds() {
		return nil, fmt.Errorf("%w: %d total edge-rounds, budget %d",
			ErrBudgetExceeded, c.corrupted, c.total.TotalEdgeRounds())
	}
	if badInject != nil {
		return nil, badInject
	}
	rt.apply()
	return touched, nil
}

// deliverRound adds the delivered round (c.cur, gathered) to the run's
// statistics, fires RoundDelivered on it, and ticks the round clock — the
// tail every engine runs after its gather. The round's messages are the
// buffer's occupied slots after the adversary's apply; its bytes and
// largest message are the shards' gather sums.
//
//mobilevet:hotpath
func (c *runCore) deliverRound(corrupted []graph.Edge) {
	st, sums := &c.rc.stats, c.rc.shardSums
	st.Rounds++
	st.Messages += c.cur.len()
	st.CorruptedEdgeRounds += len(corrupted)
	for k := range sums {
		st.Bytes += sums[k].bytes
		st.MaxMsgBytes = max(st.MaxMsgBytes, sums[k].maxMsg)
	}
	// The view is reused across rounds — observers may not retain it (see
	// Observer.RoundDelivered), so one per run suffices.
	c.view = RoundView{buf: c.cur, corrupted: corrupted}
	for _, o := range c.observers {
		o.RoundDelivered(c.round, &c.view)
	}
	c.round++
}

// finalStats returns the run's statistics, with MaxEdgeCongestion folded
// from the per-slot delivered counts gather kept: an undirected edge
// carried the messages of both its slots.
func (c *runCore) finalStats() Stats {
	st := c.rc.stats
	cnt, rev := c.rc.delivered, c.layout.revSlot
	for s, n := range cnt {
		st.MaxEdgeCongestion = max(st.MaxEdgeCongestion, int(n+cnt[rev[s]]))
	}
	return st
}

// runDone notifies every observer that the run ended, successfully or not,
// and returns the run's statistics. Engines call it on every exit path,
// exactly once per run.
func (c *runCore) runDone(err error) Stats {
	st := c.finalStats()
	for _, o := range c.observers {
		o.RunDone(st, err)
	}
	return st
}
