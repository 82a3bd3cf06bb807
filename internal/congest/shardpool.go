package congest

import "sync"

// shardPool is the persistent worker pool behind ShardEngine's parallel-for
// phases. It parks `size` goroutines between phases; a phase hands every
// worker one shard index over the kick channel and runs the last shard on the
// coordinating goroutine itself, so a pool for S shards costs S-1 goroutines.
// The pool lives on a RunContext across runs — sweep cells and repeated
// Scenario.Run calls reuse the parked goroutines, and a phase dispatch is
// channel sends plus a WaitGroup join: zero allocations per round.
//
// Memory model: the coordinator writes p.fn before any kick send, so workers
// observe it through the channel receive; workers finish their shard before
// wg.Done, so the coordinator observes all shard writes after wg.Wait. A pool
// serves one phase at a time (the RunContext it lives on already serves one
// run at a time).
type shardPool struct {
	size   int
	fn     func(shard int) // current phase body; set by run, nil between phases
	kick   chan int        // shard indices for the parked workers
	quit   chan struct{}
	once   sync.Once // close() idempotence
	wg     sync.WaitGroup
	panics []any // per-worker recovered panic, re-raised by the coordinator
}

func newShardPool(size int) *shardPool {
	p := &shardPool{
		size:   size,
		kick:   make(chan int, size),
		quit:   make(chan struct{}),
		panics: make([]any, size),
	}
	// Every worker checks in before the pool is handed out, so each one has
	// run and is parking on kick when the first phase starts. A worker that
	// had not yet run could otherwise sit behind the coordinator and one
	// busy worker, which take the buffered kicks between them, and first
	// park rounds or runs later: the runtime's wait record for that first
	// park is an allocation that lands in whatever round it happens in.
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go p.work()
	}
	p.wg.Wait()
	return p
}

func (p *shardPool) work() {
	p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case k := <-p.kick:
			p.invoke(k)
			p.wg.Done()
		}
	}
}

// invoke runs the phase body for one shard, capturing a panic (a panicking
// protocol) so it unwinds the coordinating goroutine instead of killing the
// process from a pool worker.
func (p *shardPool) invoke(k int) {
	defer func() { p.panics[k] = recover() }()
	p.fn(k)
}

// shards returns the shard count a phase body is invoked with: one shard per
// parked worker plus the coordinator's own.
func (p *shardPool) shards() int {
	if p == nil {
		return 1
	}
	return p.size + 1
}

// run executes fn(k) for every shard k in [0, shards()) — workers take shards
// 0..size-1, the coordinator takes the last — and returns when all of them
// completed. A nil pool (single-shard run) degenerates to a plain call. If
// any shard panicked, run re-panics on the coordinator after the barrier,
// preferring the lowest shard's panic for determinism.
func (p *shardPool) run(fn func(shard int)) {
	if p == nil || p.size == 0 {
		fn(0)
		return
	}
	p.fn = fn
	p.wg.Add(p.size)
	for k := 0; k < p.size; k++ {
		p.kick <- k
	}
	// The deferred barrier keeps a coordinator-shard panic from unwinding
	// past workers still touching shared state.
	defer p.finish()
	fn(p.size)
}

// finish joins the phase's workers and surfaces the lowest-shard worker
// panic, clearing the rest so a reused pool never replays a stale panic.
func (p *shardPool) finish() {
	p.wg.Wait()
	p.fn = nil
	var first any
	for i, r := range p.panics {
		if r != nil {
			if first == nil {
				first = r
			}
			p.panics[i] = nil
		}
	}
	if first != nil {
		panic(first)
	}
}

// close releases the parked workers. Idempotent; safe on a nil pool. Must not
// overlap a phase (the owning RunContext serves one run at a time).
func (p *shardPool) close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
}
