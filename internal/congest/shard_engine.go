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
// views are byte-identical at every shard count — enforced by the
// cross-engine equivalence suites, which check every shard count against a
// test-only reference simulator.
//
// Both the pool and the node coroutines persist on the RunContext across
// runs (sweep cells, repeated Scenario.Run): a coroutine parks between runs
// and the next run binds its protocol and node state onto it, so a warm
// context creates no goroutines or coroutines per run, and the fault-free
// steady state stays zero-alloc per round. Pick this engine for large graphs
// (n ≳ 10⁴) on multi-core hosts; for small graphs the per-phase barriers
// cost more than the parallelism returns and the single-shard engine
// ("step") wins.
type ShardEngine struct {
	// Shards is the number of contiguous node shards, which is also the
	// worker parallelism of every phase. 0 (the default) uses GOMAXPROCS,
	// bounded by the RunContext's LimitShards cap; either way the count is
	// clamped to [1, n]. 1 runs the whole round on the calling goroutine —
	// no pool, no barriers — and is the "step" engine. Its coroutines park
	// on the RunContext exactly like a multi-shard run's (the two share
	// them), and a single-shard run leaves any pool parked on the context
	// untouched.
	Shards int
}

// abortSignal unwinds a node coroutine's protocol when the engine aborts or
// stops it.
type abortSignal struct{}

// stepNode is one node coroutine of the shard engine. Parked on a
// RunContext's coroutine slab, it serves one run after another: the engine
// binds a run's protocol and the node's nodeCore (a slot of the run's
// shared core slice, which carries the pending outbox and the port inbox
// the engine reads and writes between resumptions), and the coroutine
// drops both when the protocol returns.
type stepNode struct {
	*nodeCore
	proto Protocol

	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()

	done    bool // the run's protocol returned (or the node is unbound)
	running bool // the coroutine is inside the protocol, parked at an exchange
	abort   bool // set by the engine to unwind an aborted run
}

var _ Runtime = (*stepNode)(nil)

// loop is the body of a node coroutine, one iteration per run: run the
// bound protocol, drop the run-scoped references so a parked coroutine
// pins nothing of the run, mark the node done, and park until the engine
// binds the next run. A stop (Close, the context's GC cleanup, or a slab
// dropped after a context's first run or a panic) makes the park return
// false and ends the loop.
//
//mobilevet:hotpath
func (s *stepNode) loop(yield func(struct{}) bool) {
	s.yield = yield
	for {
		s.running = true
		s.runProto()
		s.running = false
		s.proto, s.nodeCore = nil, nil
		s.done = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProto runs the bound protocol, absorbing the abortSignal an aborted or
// stopped run unwinds with. Any other panic propagates out of the
// coroutine to whoever resumed it.
func (s *stepNode) runProto() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				panic(r)
			}
		}
	}()
	s.proto(s)
}

// ExchangePorts implements the round barrier by parking the coroutine.
//
//mobilevet:hotpath
func (s *stepNode) ExchangePorts(out []Msg) []Msg {
	s.outPending = out
	// yield returns false when the coroutine is being stopped; abort is set
	// when the engine unwinds an aborted run. Either way, unwind the
	// protocol.
	if !s.yield(struct{}{}) || s.abort {
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

// coroSlab is the set of node coroutines parked on a RunContext. It is a
// value of its own so
// the GC cleanup that reclaims a dropped context's coroutines can hold it
// without pinning the context; a parked coroutine references only its
// stepNode, which holds nothing of a finished run.
type coroSlab struct {
	nodes []*stepNode
}

// grow extends the slab to at least n coroutines. New coroutines are built
// shard-parallel over the run's pool: at 10⁵–10⁶ nodes the iter.Pull setup
// is itself a visible slice of a cold run.
func (cs *coroSlab) grow(n int, pool *shardPool, bounds []int32) {
	have := len(cs.nodes)
	if have >= n {
		return
	}
	fresh := make([]stepNode, n-have)
	cs.nodes = append(cs.nodes, make([]*stepNode, n-have)...)
	nodes := cs.nodes
	pool.run(func(k int) {
		for u := max(bounds[k], int32(have)); u < bounds[k+1]; u++ {
			s := &fresh[int(u)-have]
			s.next, s.stop = iter.Pull(s.loop)
			nodes[u] = s
		}
	})
}

// stop ends every coroutine in the slab: a node parked between runs returns
// from its loop, one parked inside a protocol unwinds it first. stop is a
// no-op on coroutines that already ended.
func (cs *coroSlab) stop() {
	for _, s := range cs.nodes {
		s.stop()
	}
}

// Name implements Engine: "step" for the single-shard engine, "shard" for
// every other shard count. The two names keep cell seeds, cache keys, and
// Record.Engine stable.
func (e ShardEngine) Name() string {
	if e.Shards == 1 {
		return "step"
	}
	return "shard"
}

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

// RunIn implements Engine. A nil rc runs in a throwaway context that
// is closed before RunIn returns, so the run leaves no coroutine parked.
func (e ShardEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (res *Result, err error) {
	if rc == nil {
		rc = NewRunContext()
		defer rc.Close()
	}
	core, err := newRunCore(rc, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		rc.releaseLent(err != nil)
		core.runDone(err)
	}()
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
	nodes := rc.coroutines(n, pool, bounds).nodes[:n]
	for u, s := range nodes {
		s.nodeCore, s.proto, s.done = &cores[u], proto, false
	}
	// A run that unwinds by panic (a protocol's, an observer's) leaves
	// coroutines parked inside a protocol that no later run can resume:
	// drop the slab so the next run builds a fresh one. The round it
	// abandoned may have collected slots no shard list recorded, so the
	// round buffer is emptied whole, and its slabs may hold lent payloads.
	unwound := true
	defer func() {
		if unwound {
			rc.closeCoroutines()
			core.cur.discard()
			rc.releaseLent(true)
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
	err = sr.rounds()
	if err != nil {
		sr.abort()
	}
	unwound = false
	rc.coroutinesServed()
	if err != nil {
		return nil, err
	}
	return core.finish(outputs(cores)), nil
}

// rounds runs the round loop until every node has terminated or the run
// fails.
func (sr *shardRun) rounds() error {
	core, pool, errs, active := sr.core, sr.core.pool, sr.errs, sr.active
	// Bind the phase method values once: a method value allocates its
	// closure, so binding inside the loop would cost two allocs per round.
	computePhase := sr.computePhase
	gatherPhase := sr.gatherPhase

	nActive := len(sr.nodes)
	for nActive > 0 {
		if err := core.beginRound(); err != nil {
			return err
		}
		pool.run(computePhase)
		// Merge the shard slot lists before looking at errors: a failed
		// round's collected slots must reach the buffer's list too, or the
		// next reset would leave them occupied for the context's next run.
		buf := core.cur
		for _, tl := range sr.touched {
			buf.touched = append(buf.touched, tl...)
		}
		nActive = 0
		for k := range errs {
			if errs[k] != nil {
				return errs[k]
			}
			nActive += active[k]
		}
		if nActive == 0 {
			// Every node terminated without exchanging: the round is
			// abandoned before delivery, exactly like the other engines.
			break
		}
		corrupted, err := core.intercept()
		if err != nil {
			return err
		}
		core.cur.sortTouched()
		pool.run(gatherPhase)
		core.deliverRound(corrupted)
	}
	return nil
}

// abort unwinds an aborted run's live nodes so their coroutines park again,
// unbound and ready for the next run. A node parked inside its protocol is
// resumed with its abort flag set: its ExchangePorts panics abortSignal,
// which the coroutine absorbs — one switch per node, the cost a stop would
// have. A node the run never resumed is unbound in place. Sequential: the
// run is already over.
func (sr *shardRun) abort() {
	for _, s := range sr.nodes {
		if s.done {
			continue
		}
		if !s.running {
			s.proto, s.nodeCore, s.done = nil, nil, true
			continue
		}
		s.abort = true
		for !s.done { // a protocol may exchange again while it unwinds
			s.next()
		}
		s.abort = false
	}
}

// shardRun carries one shard-engine run's phase state so the phase bodies
// are named methods — entry points the shardsafe and hotalloc analyzers see
// — rather than anonymous closures. All slices are shard-indexed or
// CSR-partitioned; each worker k touches only its own slots.
type shardRun struct {
	core    *runCore
	nodes   []*stepNode
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
// the lowest node's, exactly as an in-order collection would.
//
//mobilevet:hotpath
func (sr *shardRun) computePhase(k int) {
	tl := sr.touched[k][:0]
	stepped := sr.active[k]
	for u := sr.bounds[k]; u < sr.bounds[k+1]; u++ {
		s := sr.nodes[u]
		if s.done {
			continue
		}
		// A node whose protocol returns parks again with done set: its
		// coroutine stays on the slab for the next run.
		if s.next(); s.done {
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
// Each payload is copied into arena chunk k — or, when the node lent its
// outbox (LendOut), recorded in the chunk by reference, since the lending
// contract keeps the sender's bytes unchanged until every receiver has moved
// on. The lending flag covers this one collection: it is read and cleared
// together with the pending outbox. Every newly occupied slot is appended
// to touched, shard k's private list, which the engine merges in shard
// order. Nodes are collected in ascending order within a list and shard
// ranges are ascending, so the buffer keeps its canonical ascending slot
// order without a sort, and shards collect concurrently into their disjoint
// CSR slot ranges without contending on the arena.
//
// It also surfaces the per-node validation errors: a map compat Exchange
// that addressed a non-neighbor, a port outbox longer than the degree, and —
// when the run declares a bandwidth budget — a message exceeding it, lent or
// not. Ports are walked in ascending order, so the offender an error names
// is deterministic: the smallest (node, port) that violates.
func (c *runCore) collectShard(nc *nodeCore, k int, touched *[]int32) error {
	out, lent := nc.outPending, nc.outLent
	nc.outPending, nc.outLent = nil, false
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
		if lent {
			refs[s] = arena.lend(k, m)
		} else {
			refs[s] = arena.put(k, m)
		}
		out[p] = nil
	}
	return nil
}
