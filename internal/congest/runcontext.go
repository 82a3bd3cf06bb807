package congest

import (
	"runtime"
	"sort"
	"sync/atomic"

	"mobilecongest/internal/graph"
)

// RunContext holds the per-graph simulation state a run builds before its
// first round: the CSR edge layout, the reusable round buffer and the
// adversary-boundary scratch, the node-core slab with its per-node RNGs, the
// inbox fan-out slice, and the internal statistics observer. It also parks
// the coroutine engines' node coroutines and shard worker pool between runs.
// Rebuilding all of that per run dominates the setup cost of short runs; a
// RunContext lets repeated runs — a Scenario executed in a loop, a sweep
// worker grinding through cells on the same topology — reuse it instead.
//
// A context binds lazily to the graph of the first run executed in it and
// rebinds (rebuilding its state) whenever a run arrives with a different
// *graph.Graph. Binding is by pointer identity: reuse pays off only when the
// caller also reuses the Graph value, which Scenario and Plan do.
//
// Between runs a context can be parked (Park): it gives up its goroutines
// and keeps the rest, bound to its graph, for a later run. The root
// package's Plans share a pool of parked contexts, one per registry graph
// a Plan worker left, so a later Plan over the same topology starts warm.
//
// A RunContext serves one run at a time; sharing one between concurrent runs
// is a data race. Concurrent callers use one context each (a Plan worker
// holds one at a time, taken from that pool or new).
type RunContext struct {
	g      *graph.Graph
	layout *edgeLayout
	cur    *roundBuffer
	rt     *RoundTraffic
	cores  []nodeCore
	stats  *StatsObserver
	seeder SeededRand
	rngs   []*SeededRand

	// Port slabs: every node's reusable outbox and inbox are CSR sub-slices
	// of these slot-indexed slabs (node u owns rowStart[u]:rowStart[u+1] of
	// each), so per-round node I/O allocates nothing.
	outSlab []Msg
	inSlab  []Msg

	// Shard-engine state: the parked worker pool (persists across runs so
	// repeated runs reuse goroutines) with the GC cleanup that closes it if
	// the context is dropped without Close, and the per-shard scratch.
	pool         *shardPool
	poolCleanup  runtime.Cleanup
	shardCap     int       // LimitShards cap on the default shard count
	bounds       []int32   // cached shard node boundaries for boundsShards
	boundsShards int       // shard count bounds was computed for; 0 = stale
	shardTouched [][]int32 // per-shard collected-slot lists
	shardErrs    []error   // per-shard first collection error
	shardActive  []int     // per-shard live-node counts

	// Coroutine-engine state: the node coroutines parked between runs
	// (indexed by node, grown to the largest graph served) and the GC
	// cleanup that stops them if the context is dropped without Close.
	coros       *coroSlab
	coroCleanup runtime.Cleanup
	coroWarm    bool // a coroutine-engine run was served; later runs keep the slab

	// memo is the Memo the run's nodes share, created by the first run that
	// asks for it, so a context whose runs never do carries one nil
	// pointer. The engine empties it when each run ends; its tables keep
	// their capacity for the next run, and its node scratch values stay
	// until the context rebinds or closes.
	memo atomic.Pointer[Memo]
}

// NewRunContext returns an empty context; it binds to a graph on first use.
func NewRunContext() *RunContext { return &RunContext{} }

// bind points the context at g, rebuilding the graph-shaped state unless the
// context is already bound to the very same graph.
func (rc *RunContext) bind(g *graph.Graph) {
	if rc.g == g {
		return
	}
	rc.g = g
	rc.layout = newEdgeLayout(g)
	rc.cur = newRoundBuffer(rc.layout)
	rc.rt = newRoundTraffic(rc.layout)
	rc.cores = make([]nodeCore, g.N())
	rc.outSlab = make([]Msg, rc.layout.slots())
	rc.inSlab = make([]Msg, rc.layout.slots())
	rc.stats = NewStatsObserver()
	rc.boundsShards = 0 // shard boundaries are layout-shaped
	rc.dropScratch()    // node scratch is sized to the old graph's nodes
	// rc.rngs is deliberately kept: per-node RNGs are graph-independent and
	// restored per run, so they survive rebinding. The shard pool and the
	// shard scratch capacities likewise survive: neither depends on the graph.
}

// Close releases what the context keeps parked between runs: the shard
// pool's worker goroutines, the node coroutines of the step and shard
// engines, and the nodes' NodeScratch values. The context stays usable — a
// later run simply re-creates them — so Close is about reclaiming
// goroutines and memory promptly when a worker (a Plan.Stream worker, a
// finished sweep) retires its context. Contexts dropped without Close are
// covered by GC cleanups that release the goroutines, eventually; the
// scratch goes with the context.
func (rc *RunContext) Close() {
	rc.Park()
	rc.dropScratch()
}

// Park releases the goroutines the context keeps between runs — the shard
// pool's workers and the node coroutines — and keeps everything else: the
// binding to its graph with the layout, slabs, round arenas and RNGs, and
// the run memo with the nodes' NodeScratch values. A parked context holds
// no goroutine, so it can wait idle for its next run (the root package
// pools idle contexts across Plans this way); that run builds the
// coroutines it needs and keeps them parked, like any later run.
func (rc *RunContext) Park() {
	rc.closePool()
	rc.closeCoroutines()
}

// HandOff moves the goroutines rc keeps between runs — its shard pool and
// its node coroutines — to next, which releases its own first. Neither is
// shaped by a graph, so a caller that leaves rc for a context bound to
// another graph (a Plan worker moving to the next topology) keeps its
// goroutines instead of stopping them on one context and starting them on
// the other. rc is left parked; next keeps the coroutines from its first
// run on.
func (rc *RunContext) HandOff(next *RunContext) {
	next.Park()
	if rc.pool != nil {
		rc.poolCleanup.Stop()
		next.pool, rc.pool = rc.pool, nil
		next.poolCleanup = runtime.AddCleanup(next, (*shardPool).close, next.pool)
	}
	if rc.coros != nil {
		rc.coroCleanup.Stop()
		next.coros, rc.coros = rc.coros, nil
		next.coroCleanup = runtime.AddCleanup(next, (*coroSlab).stop, next.coros)
		next.coroWarm = true
	}
}

// closePool stops the parked worker pool and its GC cleanup, so a replaced
// or closed pool is not kept reachable until the context itself is
// collected.
func (rc *RunContext) closePool() {
	rc.poolCleanup.Stop()
	rc.pool.close()
	rc.pool = nil
}

// coroutines returns the context's slab of node coroutines, grown to at
// least n: extended when a run has more nodes than any before it, while a
// smaller graph reuses a prefix. A run that needs under a quarter of the
// slab drops it and builds one of its own size instead, so a context that
// once served a large graph (a sweep worker whose N axis mixes sizes) does
// not keep that graph's goroutine stacks parked through its small cells.
func (rc *RunContext) coroutines(n int, pool *shardPool, bounds []int32) *coroSlab {
	if rc.coros != nil && 4*n < len(rc.coros.nodes) {
		rc.closeCoroutines()
	}
	if rc.coros == nil {
		rc.coros = &coroSlab{}
		// Safety net for contexts dropped without Close. The cleanup holds
		// the slab, not the context, so it never pins the context live.
		rc.coroCleanup = runtime.AddCleanup(rc, (*coroSlab).stop, rc.coros)
	}
	rc.coros.grow(n, pool, bounds)
	return rc.coros
}

// coroutinesServed is called when a coroutine-engine run returns. The
// context's first such run stops the slab it built, so a context that
// serves a single run (a one-off Scenario.Run, Engine.Run's throwaway
// context) leaves nothing parked: the goroutine stacks go straight back to
// the runtime for the next context, instead of waiting for a GC cleanup
// while that context builds its own slab. From the second run on the slab
// stays parked between runs.
func (rc *RunContext) coroutinesServed() {
	if !rc.coroWarm {
		rc.coroWarm = true
		rc.closeCoroutines()
	}
}

// closeCoroutines stops every coroutine parked on the context and forgets
// the slab; the next coroutine-engine run builds a new one.
func (rc *RunContext) closeCoroutines() {
	if rc.coros == nil {
		return
	}
	rc.coroCleanup.Stop()
	rc.coros.stop()
	rc.coros = nil
}

// LimitShards caps the shard count a ShardEngine with the default (automatic,
// GOMAXPROCS) shard count resolves inside this context; n <= 0 removes the
// cap. An explicit ShardEngine.Shards is never capped. Plan.Stream sets this
// on each of its P workers' contexts to GOMAXPROCS/P, so concurrent cells
// divide the machine instead of oversubscribing it P-fold.
func (rc *RunContext) LimitShards(n int) { rc.shardCap = n }

// ensurePool returns the context's pool with exactly `workers` parked
// goroutines, building or resizing it as needed. Zero workers (a
// single-shard run) returns nil — the degenerate pool that runs phases
// inline — and deliberately leaves any existing pool parked for the next
// parallel run.
func (rc *RunContext) ensurePool(workers int) *shardPool {
	if workers <= 0 {
		return nil
	}
	if rc.pool == nil || rc.pool.size != workers {
		rc.closePool()
		rc.pool = newShardPool(workers)
		// Safety net for contexts dropped without Close: when the context
		// becomes unreachable, release the pool's goroutines. The cleanup
		// holds the pool, not the context, so it never pins the context live.
		rc.poolCleanup = runtime.AddCleanup(rc, (*shardPool).close, rc.pool)
	}
	return rc.pool
}

// shardBounds partitions the context's nodes into `shards` contiguous ranges
// of roughly equal slot (directed-edge) count, returning shards+1 node
// boundaries. Balancing by slots rather than nodes keeps a skewed graph (a
// star, a hub-heavy expander) from loading one shard with most of the edge
// work. The boundaries are cached per (layout, shards).
func (rc *RunContext) shardBounds(shards int) []int32 {
	if rc.boundsShards == shards {
		return rc.bounds
	}
	n := rc.g.N()
	total := rc.layout.slots()
	b := rc.bounds[:0]
	b = append(b, 0)
	for k := 1; k < shards; k++ {
		target := int32(total * k / shards)
		u := int32(sort.Search(n, func(u int) bool { return rc.layout.rowStart[u] >= target }))
		if u < b[k-1] {
			u = b[k-1]
		}
		b = append(b, u)
	}
	b = append(b, int32(n))
	rc.bounds, rc.boundsShards = b, shards
	return b
}

// shardScratch sizes and resets the per-shard scratch for a run: the
// collected-slot lists keep their capacities across runs (that is what makes
// shard rounds zero-alloc in a warm context), the error slots clear, and the
// active counts are (re)derived from the current bounds by the caller.
func (rc *RunContext) shardScratch(shards int) (touched [][]int32, errs []error, active []int) {
	for len(rc.shardTouched) < shards {
		rc.shardTouched = append(rc.shardTouched, nil)
	}
	for len(rc.shardErrs) < shards {
		rc.shardErrs = append(rc.shardErrs, nil)
	}
	for len(rc.shardActive) < shards {
		rc.shardActive = append(rc.shardActive, 0)
	}
	touched = rc.shardTouched[:shards]
	errs = rc.shardErrs[:shards]
	active = rc.shardActive[:shards]
	for k := range errs {
		errs[k] = nil
	}
	return touched, errs, active
}

// runMemo returns the context's Memo, creating it on first use. Nodes on
// parallel shards may race to create it; one wins and all share it.
func (rc *RunContext) runMemo() *Memo {
	if m := rc.memo.Load(); m != nil {
		return m
	}
	rc.memo.CompareAndSwap(nil, new(Memo))
	return rc.memo.Load()
}

// releaseMemo empties the run's memo when the run ends, so no later run
// sees its entries and a parked context pins none of them.
func (rc *RunContext) releaseMemo() {
	if m := rc.memo.Load(); m != nil {
		m.release()
	}
}

// dropScratch forgets the nodes' NodeScratch values, so the next run
// starts from fresh ones.
func (rc *RunContext) dropScratch() {
	if m := rc.memo.Load(); m != nil {
		m.dropScratch()
	}
}

// resetSlabs releases any payload references a previous (possibly aborted)
// run left in the port slabs, so reused contexts leak nothing between runs.
func (rc *RunContext) resetSlabs() {
	clear(rc.outSlab)
	clear(rc.inSlab)
}

// releaseLent is called when a run ends. A run that lent payloads, or one
// that aborted (an error or a panic), may leave the context holding lent
// buffers: in the port slabs' outbox entries and delivered inbox views, and
// in the round arenas' spill lists. releaseLent drops those references, so
// a context parked between runs pins no buffer a node lent. A run that
// finished without lending leaves the slabs to the next run's resetSlabs.
func (rc *RunContext) releaseLent(aborted bool) {
	release := aborted
	for a := range rc.cur.arenas {
		release = rc.cur.arenas[a].takeLent() || release
	}
	if !release {
		return
	}
	rc.resetSlabs()
	for a := range rc.cur.arenas {
		rc.cur.arenas[a].releaseSpill()
	}
}

// nodeCores (re)derives the per-node state for a run. Node randomness is
// seeded from seed in node-index order, so every engine — and every run
// reusing this context — hands node i the same RNG stream for the same seed.
// The per-node seeds are drawn eagerly (the seeder stream must not depend on
// which nodes use randomness) but the RNG values themselves are built
// lazily, on the node's first Rand call: a protocol that never draws
// randomness pays nothing for the ~5KB rand source per node — the dominant
// setup allocation at large n. Constructed RNGs are cached in rc.rngs across
// runs; a later run restarts each (SeededRand.Restart, which also resets
// the Read position), so repeated runs of one seed skip the seeding
// altogether.
func (rc *RunContext) nodeCores(cfg Config) []nodeCore {
	seeder := rc.seeder.Restart(cfg.Seed)
	for len(rc.rngs) < rc.g.N() {
		rc.rngs = append(rc.rngs, nil)
	}
	for i := range rc.cores {
		var input []byte
		if cfg.Inputs != nil {
			input = cfg.Inputs[i]
		}
		base, end := rc.layout.rowStart[i], rc.layout.rowStart[i+1]
		rc.cores[i] = nodeCore{
			id:        graph.NodeID(i),
			neighbors: rc.g.Neighbors(graph.NodeID(i)),
			rngSeed:   seeder.Int63(),
			rngStore:  rc.rngs,
			input:     input,
			rc:        rc,
			shared:    cfg.Shared,
			outBuf:    rc.outSlab[base:end:end],
			inBuf:     rc.inSlab[base:end:end],
		}
	}
	return rc.cores
}
