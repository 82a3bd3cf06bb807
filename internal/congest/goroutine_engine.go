package congest

import (
	"mobilecongest/internal/graph"
)

// abortSignal unwinds node goroutines (or coroutines) when the engine aborts
// a run.
type abortSignal struct{}

// GoroutineEngine runs each node's protocol as straight-line Go code in its
// own goroutine; ExchangePorts blocks on channels and acts as the
// end-of-round barrier. It is the scheduling oracle: it collects, intercepts,
// and delivers through the same runCore path as the coroutine engines, but
// shares none of their scheduling (no iter.Pull, no shard loop, no pool), so
// the equivalence suites check StepEngine and ShardEngine against it. It also
// runs protocols that block on their own between exchanges, which would
// stall a coroutine engine. Each round costs two channel handoffs plus
// scheduler wakeups per node, which makes it slower than the coroutine
// engines on simulation-bound runs.
//
// Port I/O stays race-free without copying because the slabs partition by
// node: a node only ever writes its own CSR range of the out slab and only
// reads its own range of the in slab, and the channel barrier orders those
// accesses against the coordinator's collection and delivery.
type GoroutineEngine struct{}

// Name implements Engine.
func (GoroutineEngine) Name() string { return "goroutine" }

// goroutineNode is the per-node runtime of the goroutine engine. It points
// into the run's shared nodeCore slice so the run core can gather outputs.
type goroutineNode struct {
	*nodeCore

	parkCh chan struct{} // node -> coordinator: outbox pending
	inCh   chan struct{} // coordinator -> node: inbox delivered
	doneCh chan struct{}
	abort  chan struct{}
}

var _ PortRuntime = (*goroutineNode)(nil)

// ExchangePorts implements the round barrier over the park/deliver channels.
//
//mobilevet:hotpath
func (s *goroutineNode) ExchangePorts(out []Msg) []Msg {
	s.outPending = out
	select {
	case s.parkCh <- struct{}{}:
	case <-s.abort:
		panic(abortSignal{})
	}
	select {
	case <-s.inCh:
		s.round++
		return s.inBuf
	case <-s.abort:
		panic(abortSignal{})
	}
}

// Exchange is the legacy map barrier, a compat wrapper over the port path
// (see stepNode.Exchange).
func (s *goroutineNode) Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg {
	return s.portsToMapIn(s.ExchangePorts(s.mapOutToPorts(out)))
}

// Run implements Engine.
func (e GoroutineEngine) Run(cfg Config, proto Protocol) (*Result, error) {
	return e.RunIn(nil, cfg, proto)
}

// RunIn implements ContextRunner: it executes the run inside rc, reusing the
// context's layout, buffers, node cores, and RNGs (nil rc runs in a fresh
// throwaway context). All node goroutines are joined before RunIn returns,
// so nothing references the context's state afterwards.
func (GoroutineEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (res *Result, err error) {
	core, err := newRunCore(rc, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { core.runDone(err) }()
	g := core.g
	abort := make(chan struct{})
	cores := core.newNodeCores()
	nodes := make([]*goroutineNode, g.N())
	for i := range nodes {
		nodes[i] = &goroutineNode{
			nodeCore: &cores[i],
			parkCh:   make(chan struct{}),
			inCh:     make(chan struct{}),
			doneCh:   make(chan struct{}),
			abort:    abort,
		}
	}
	for _, s := range nodes {
		go func(s *goroutineNode) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); !ok {
						panic(r)
					}
				}
				close(s.doneCh)
			}()
			proto(s)
		}(s)
	}

	active := make([]bool, g.N())
	nActive := g.N()
	for i := range active {
		active[i] = true
	}

	abortAll := func() {
		close(abort)
		for _, s := range nodes {
			<-s.doneCh
		}
	}

	for nActive > 0 {
		if err := core.beginRound(); err != nil {
			abortAll()
			return nil, err
		}
		nActive, err = core.goroutineRound(nodes, active, nActive)
		if err != nil {
			abortAll()
			return nil, err
		}
		if nActive == 0 {
			break
		}
		delivered, corrupted, err := core.intercept()
		if err != nil {
			abortAll()
			return nil, err
		}
		delivered.sortTouched()
		core.gather(0, int32(core.layout.slots()))
		core.deliverRound(delivered, corrupted)
		for i, s := range nodes {
			if !active[i] {
				continue
			}
			s.inCh <- struct{}{}
		}
	}

	return core.finish(outputs(cores)), nil
}

// goroutineRound is the goroutine engine's collection phase: receive each
// live node's park (collecting its outbox) or its termination. Nodes are
// collected in ascending order straight into the buffer's own slot list, so
// it stays sorted. Returns the updated live-node count; on error the caller
// aborts the remaining nodes.
//
//mobilevet:hotpath
func (c *runCore) goroutineRound(nodes []*goroutineNode, active []bool, nActive int) (int, error) {
	for i, s := range nodes {
		if !active[i] {
			continue
		}
		select {
		case <-s.parkCh:
			if err := c.collectShard(s.nodeCore, 0, &c.cur.touched); err != nil {
				return nActive, err
			}
		case <-s.doneCh:
			active[i] = false
			nActive--
		}
	}
	return nActive, nil
}
