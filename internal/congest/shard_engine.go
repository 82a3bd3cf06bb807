package congest

import (
	"iter"
	"runtime"

	"mobilecongest/internal/graph"
)

// ShardEngine executes every phase of a round as a parallel-for over
// contiguous CSR node shards. Every node is an iter.Pull coroutine: its
// ExchangePorts parks it by yielding, and the engine resumes it with the
// port inbox filled in. Each shard's nodes are stepped by one worker of a
// persistent pool parked on the RunContext, with a barrier between phases:
//
//	compute+collect  — per shard: resume each live node to its exchange
//	                   barrier and fold its outbox into the shard's private
//	                   slice of the collection buffer (disjoint CSR slot
//	                   ranges, so shards never contend)
//	adversary        — sequential on the coordinating goroutine (Intercept,
//	                   budget verdicts, apply), with the settle diff itself
//	                   chunked over the pool when the dirty set is large
//	delivery gather  — per shard: refill the receivers' port inboxes from
//	                   the delivered buffer through revSlot
//
// The phase structure changes scheduling only: shard merge order is shard
// order (== node order), the adversary boundary is untouched, and observers
// run sequentially on the coordinator, so Results, traces, and eavesdropper
// views are byte-identical at every shard count and with the goroutine
// oracle — enforced by the cross-engine equivalence suites.
//
// The pool persists on the RunContext across runs (sweep cells, repeated
// Scenario.Run), so the fault-free steady state stays zero-alloc per round.
// Pick this engine for large graphs (n ≳ 10⁴) on multi-core hosts; for small
// graphs the per-phase barriers cost more than the parallelism returns and
// the single-shard StepEngine wins.
type ShardEngine struct {
	// Shards is the number of contiguous node shards, which is also the
	// worker parallelism of every phase. 0 (the default) uses GOMAXPROCS,
	// bounded by the RunContext's LimitShards cap; either way the count is
	// clamped to [1, n]. 1 runs the whole round on the calling goroutine —
	// no pool, no barriers — and is what StepEngine runs.
	Shards int
}

// StepEngine is the single-shard ShardEngine under its own registry name:
// every node is a coroutine resumed in node order by the calling goroutine,
// with no pool and no phase barriers. It is the default engine. The
// separate name keeps cell seeds, cache keys, and Record.Engine stable, and
// a single-shard run leaves any pool parked on its RunContext untouched.
type StepEngine struct{}

// Name implements Engine.
func (StepEngine) Name() string { return "step" }

// Run implements Engine.
func (e StepEngine) Run(cfg Config, proto Protocol) (*Result, error) {
	return e.RunIn(nil, cfg, proto)
}

// RunIn implements ContextRunner.
func (StepEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (*Result, error) {
	return ShardEngine{Shards: 1}.RunIn(rc, cfg, proto)
}

// stepNode is the per-node coroutine runtime of the shard engine. It points
// into the run's shared nodeCore slice; the pending outbox and the port
// inbox live on the core, so the engine reads and writes them between
// resumptions.
type stepNode struct {
	*nodeCore

	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
	done  bool
}

var _ PortRuntime = (*stepNode)(nil)

// ExchangePorts implements the round barrier by parking the coroutine.
//
//mobilevet:hotpath
func (s *stepNode) ExchangePorts(out []Msg) []Msg {
	s.outPending = out
	// yield returns false when the engine stopped the coroutine (abort or
	// early engine exit): unwind the protocol like the goroutine engine does.
	if !s.yield(struct{}{}) {
		panic(abortSignal{})
	}
	s.round++
	return s.inBuf
}

// Exchange is the legacy map barrier, a compat wrapper over the port path:
// the outbox folds into the port outbox up front and the inbox map is
// materialized lazily, only for the nodes and rounds that use this form.
func (s *stepNode) Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg {
	return s.portsToMapIn(s.ExchangePorts(s.mapOutToPorts(out)))
}

// Name implements Engine.
func (ShardEngine) Name() string { return "shard" }

// Run implements Engine.
func (e ShardEngine) Run(cfg Config, proto Protocol) (*Result, error) {
	return e.RunIn(nil, cfg, proto)
}

// shardCount resolves the effective shard count for a run of n nodes.
func (e ShardEngine) shardCount(rc *RunContext, n int) int {
	s := e.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
		if rc.shardCap > 0 && s > rc.shardCap {
			s = rc.shardCap
		}
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RunIn implements ContextRunner.
func (e ShardEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (res *Result, err error) {
	core, err := newRunCore(rc, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { core.runDone(err) }()
	rc = core.rc
	n := core.g.N()

	shards := e.shardCount(rc, n)
	pool := rc.ensurePool(shards - 1)
	core.pool = pool
	bounds := rc.shardBounds(shards)
	// Each shard appends collected payloads into its own arena chunk, so the
	// parallel collection phase never contends on the round arena.
	core.cur.ensureChunks(shards)
	touched, errs, active := rc.shardScratch(shards)
	for k := 0; k < shards; k++ {
		active[k] = int(bounds[k+1] - bounds[k])
	}

	cores := core.newNodeCores()
	nodes := make([]stepNode, n)
	// Build the per-node coroutines shard-parallel: at 10⁵–10⁶ nodes the
	// iter.Pull setup is itself a visible slice of short-run wall time.
	pool.run(func(k int) {
		for u := bounds[k]; u < bounds[k+1]; u++ {
			s := &nodes[u]
			s.nodeCore = &cores[u]
			s.next, s.stop = iter.Pull(func(yield func(struct{}) bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(abortSignal); !ok {
							panic(r)
						}
					}
				}()
				s.yield = yield
				proto(s)
			})
		}
	})
	// Unwind every still-parked coroutine on any exit path; stop is a no-op
	// on finished ones. Sequential: the run is already over.
	defer func() {
		for i := range nodes {
			nodes[i].stop()
		}
	}()

	sr := &shardRun{
		core:    core,
		nodes:   nodes,
		bounds:  bounds,
		touched: touched,
		errs:    errs,
		active:  active,
	}
	// Bind the phase method values once: a method value allocates its
	// closure, so binding inside the loop would cost two allocs per round.
	computePhase := sr.computePhase
	gatherPhase := sr.gatherPhase

	nActive := n
	for nActive > 0 {
		if err := core.beginRound(); err != nil {
			return nil, err
		}
		pool.run(computePhase)
		nActive = 0
		buf := core.cur
		for k := 0; k < shards; k++ {
			if errs[k] != nil {
				return nil, errs[k]
			}
			nActive += active[k]
		}
		for k := 0; k < shards; k++ {
			buf.touched = append(buf.touched, touched[k]...)
		}
		if nActive == 0 {
			// Every node terminated without exchanging: the round is
			// abandoned before delivery, exactly like the other engines.
			break
		}
		delivered, corrupted, err := core.intercept()
		if err != nil {
			return nil, err
		}
		delivered.sortTouched()
		pool.run(gatherPhase)
		core.deliverRound(delivered, corrupted)
	}

	return core.finish(outputs(cores)), nil
}

// shardRun carries one shard-engine run's phase state so the phase bodies
// are named methods — entry points the shardsafe and hotalloc analyzers see
// — rather than anonymous closures. All slices are shard-indexed or
// CSR-partitioned; each worker k touches only its own slots.
type shardRun struct {
	core    *runCore
	nodes   []stepNode
	bounds  []int32
	touched [][]int32
	errs    []error
	active  []int
}

// computePhase steps shard k's live nodes to their next exchange (or to
// termination) and collects their outboxes. Within a shard, node order is
// ascending and ports are ascending, so the shard's slot list comes out
// sorted; shard slot ranges are themselves ascending, so the coordinator's
// merge in shard order rebuilds the canonical global order without a sort.
// The first collection error aborts the shard, leaving its remaining
// nodes un-stepped — the same nodes a single-shard run would not have
// reached; the coordinator surfaces the lowest shard's error, which is
// the lowest node's, matching the goroutine oracle's in-order collection.
//
//mobilevet:hotpath
func (sr *shardRun) computePhase(k int) {
	tl := sr.touched[k][:0]
	stepped := sr.active[k]
	for u := sr.bounds[k]; u < sr.bounds[k+1]; u++ {
		s := &sr.nodes[u]
		if s.done {
			continue
		}
		if _, alive := s.next(); !alive {
			s.done = true
			stepped--
			continue
		}
		if err := sr.core.collectShard(s.nodeCore, k, &tl); err != nil {
			sr.errs[k] = err
			break
		}
	}
	sr.touched[k] = tl
	sr.active[k] = stepped
}

// gatherPhase is the delivery fan-in for shard k's receivers: the in-slots
// of the shard's node range.
//
//mobilevet:hotpath
func (sr *shardRun) gatherPhase(k int) {
	rowStart := sr.core.layout.rowStart
	sr.core.gather(rowStart[sr.bounds[k]], rowStart[sr.bounds[k+1]])
}

// gather refills the port inboxes of in-slots [lo, hi) from the delivered
// buffer: the message on slot (u,v) lands in v's inbox, which is its reverse
// slot in the in slab. The whole range is rewritten — silent edges are
// re-nilled rather than remembered — so no clear-list survives a round and
// disjoint ranges fill concurrently without contending. Resolving a packed
// ref may read another shard's arena chunk; that is safe because collection
// finished at the phase barrier and nothing writes the buffer now.
func (c *runCore) gather(lo, hi int32) {
	in, rev, buf := c.rc.inSlab, c.layout.revSlot, c.cur
	for rs := lo; rs < hi; rs++ {
		in[rs] = buf.get(rev[rs])
	}
}

// collectShard folds one parked node's pending port outbox into the round's
// collection buffer, consuming (clearing) it so the node's reusable OutBuf
// comes back empty. Port p of node u is slot rowStart[u]+p by construction.
// Each payload is copied into arena chunk k, and every newly occupied slot is
// appended to touched: shard k's private list on the shard engine, which
// merges the lists in shard order, or the buffer's own list on the goroutine
// engine. Nodes are collected in ascending order within a list and shard
// ranges are ascending, so the buffer keeps its canonical ascending slot
// order without a sort, and shards collect concurrently into their disjoint
// CSR slot ranges without contending on the arena.
//
// It also surfaces the per-node validation errors: a map compat Exchange
// that addressed a non-neighbor, a port outbox longer than the degree, and —
// when the run declares a bandwidth budget — a message exceeding it. Ports
// are walked in ascending order, so the offender an error names is
// deterministic: the smallest (node, port) that violates.
func (c *runCore) collectShard(nc *nodeCore, k int, touched *[]int32) error {
	out := nc.outPending
	nc.outPending = nil
	if nc.badSend {
		return badSendError(nc)
	}
	base := c.layout.rowStart[nc.id]
	if len(out) > int(c.layout.degree(nc.id)) {
		return badDegreeError(c, nc, out)
	}
	refs, arena := c.cur.refs, &c.cur.arenas[c.cur.parity]
	for p, m := range out {
		if m == nil {
			continue
		}
		if c.bwBits > 0 && len(m)*8 > c.bwBits {
			return badBandwidthError(c, nc, p, m)
		}
		s := base + int32(p)
		if refs[s] == 0 {
			*touched = append(*touched, s)
		}
		refs[s] = arena.put(k, m)
		out[p] = nil
	}
	return nil
}
