package main

import (
	"fmt"

	mc "mobilecongest"
	// Only for the Stats type in Observer.RunDone's signature, which the
	// root package does not re-export.
	"mobilecongest/internal/congest"
)

// The traced run attributes a Scenario.Run's wall time to the engine's
// phases from outside the simulator, through its public hooks: an Observer
// timestamps the round lifecycle, a wrapper around Adversary.Intercept
// times the adversary boundary, and at node level a wrapper around each
// node's PortRuntime times node code between exchanges. All three assume
// the step engine, which drives every node from one scheduler goroutine, so
// the trace needs no synchronization.

// Scenario derives registry-built protocol and adversary seeds from its own
// seed with these mixes (scenario.go). The traced run builds both itself, so
// it must derive them the same way. Every traced op is compared with the
// cell's by-name run, which fails the op if the two ever drift apart.
const (
	advSeedMix   = 0x6d6f62696c65
	protoSeedMix = 0x70726f746f
)

type level int

const (
	untraced level = iota
	phaseLevel
	nodeLevel
	levels
)

// runTrace records one run's timeline on the report's clock: when each
// round started and was delivered, when the run finished, and per started
// round the node compute and adversary time spent in it.
type runTrace struct {
	rep       *report
	starts    []int64
	delivered []int64
	done      int64
	compute   []int64
	intercept []int64
	steps     int
}

func (t *runTrace) reset() {
	t.starts, t.delivered = t.starts[:0], t.delivered[:0]
	t.compute, t.intercept = t.compute[:0], t.intercept[:0]
	t.done, t.steps = 0, 0
}

// RoundStart implements mc.Observer.
func (t *runTrace) RoundStart(int) {
	t.starts = append(t.starts, t.rep.now())
	t.compute = append(t.compute, 0)
	t.intercept = append(t.intercept, 0)
}

// RoundDelivered implements mc.Observer.
func (t *runTrace) RoundDelivered(int, *mc.RoundView) {
	t.delivered = append(t.delivered, t.rep.now())
}

// RunDone implements mc.Observer.
func (t *runTrace) RunDone(congest.Stats, error) { t.done = t.rep.now() }

// addCompute charges one node-code segment to the round in progress. Nodes
// first run inside round 0's step, so a round is always in progress.
func (t *runTrace) addCompute(since int64) {
	t.compute[len(t.compute)-1] += t.rep.now() - since
	t.steps++
}

// timedAdversary times Intercept. Unwrap hands the engine the adversary
// that declares the budget and run-reset interfaces, so wrapping changes
// neither the budget enforcement nor the per-run reset.
type timedAdversary struct {
	inner mc.Adversary
	t     *runTrace
}

func (a timedAdversary) Intercept(round int, tr *mc.RoundTraffic) {
	start := a.t.rep.now()
	a.inner.Intercept(round, tr)
	a.t.intercept[len(a.t.intercept)-1] += a.t.rep.now() - start
}

func (a timedAdversary) Unwrap() any {
	if u, ok := a.inner.(interface{ Unwrap() any }); ok {
		return u.Unwrap()
	}
	return a.inner
}

// timedRuntime times a node's code from each resume to its next exchange.
// Every method but the two exchanges forwards to the node's own runtime.
type timedRuntime struct {
	mc.PortRuntime
	t       *runTrace
	resumed int64
}

func (r *timedRuntime) ExchangePorts(out []mc.Msg) []mc.Msg {
	r.t.addCompute(r.resumed)
	in := r.PortRuntime.ExchangePorts(out)
	r.resumed = r.t.rep.now()
	return in
}

func (r *timedRuntime) Exchange(out map[mc.NodeID]mc.Msg) map[mc.NodeID]mc.Msg {
	r.t.addCompute(r.resumed)
	in := r.PortRuntime.Exchange(out)
	r.resumed = r.t.rep.now()
	return in
}

func timeNodes(p mc.Protocol, t *runTrace) mc.Protocol {
	return func(rt mc.Runtime) {
		w := &timedRuntime{PortRuntime: mc.Ports(rt), t: t, resumed: t.rep.now()}
		p(w)
		t.addCompute(w.resumed)
	}
}

// opTotals sums one op's intervals over its cells, in nanoseconds.
type opTotals struct {
	wall, run, buildProto, buildAdv    int64
	setup, round, interround, drain    int64
	compute, computeInRound, intercept int64
	steps, rounds, messages, corrupt   int
}

func (o *opTotals) add(p opTotals) {
	o.run += p.run
	o.buildProto += p.buildProto
	o.buildAdv += p.buildAdv
	o.setup += p.setup
	o.round += p.round
	o.interround += p.interround
	o.drain += p.drain
	o.compute += p.compute
	o.computeInRound += p.computeInRound
	o.intercept += p.intercept
	o.steps += p.steps
	o.rounds += p.rounds
	o.messages += p.messages
	o.corrupt += p.corrupt
}

// tracedCell runs one cell at every level. Each level keeps one Scenario
// across ops, so every op runs in a warm RunContext the way repeated
// Scenario.Run calls do.
type tracedCell struct {
	c     cell
	seed  int64
	g     *mc.Graph
	sc    [levels]*mc.Scenario
	tr    [levels]*runTrace
	ref   *mc.Result // the cell's by-name run, which every op must reproduce
	check checker
}

func newTracedCell(c cell, seed int64, g *mc.Graph, check checker, rep *report) (*tracedCell, error) {
	ref, err := c.byName(seed).Run()
	if err != nil {
		return nil, fmt.Errorf("%s by name: %w", c, err)
	}
	tc := &tracedCell{c: c, seed: seed, g: g, ref: ref, check: check}
	for lv := range levels {
		opts := []mc.ScenarioOption{mc.WithGraph(g), mc.WithEngineName(engineName), mc.WithSeed(seed)}
		if lv != untraced {
			tc.tr[lv] = &runTrace{rep: rep}
			opts = append(opts, mc.WithObserver(tc.tr[lv]))
		}
		tc.sc[lv] = mc.NewScenario(opts...)
	}
	return tc, nil
}

// op builds the cell's protocol and adversary through the registries, runs
// it at level lv, records its spans under parent, and checks the result.
func (tc *tracedCell) op(lv level, rep *report, trace, parent int) (opTotals, error) {
	c := tc.c
	t0 := rep.now()
	proto, shared, err := mc.BuildProtocol(c.proto, tc.g, mc.ProtoParams{Rounds: c.p, Seed: tc.seed ^ protoSeedMix, F: max(c.f, 1)})
	if err != nil {
		return opTotals{}, err
	}
	t1 := rep.now()
	adv, err := mc.BuildAdversary(c.adv, tc.g, c.f, tc.seed^advSeedMix)
	if err != nil {
		return opTotals{}, err
	}
	t2 := rep.now()
	tr := tc.tr[lv]
	if tr != nil {
		tr.reset()
		if adv != nil {
			adv = timedAdversary{inner: adv, t: tr}
		}
		if lv == nodeLevel {
			proto = timeNodes(proto, tr)
		}
	}
	s := tc.sc[lv]
	mc.WithProtocol(proto)(s)
	mc.WithShared(shared)(s)
	mc.WithAdversary(adv)(s)
	t3 := rep.now()
	res, err := s.Run()
	t4 := rep.now()

	id := rep.span(trace, parent, "cell "+c.String(), t0, t4)
	rep.span(trace, id, "build.protocol", t0, t1)
	rep.span(trace, id, "build.adversary", t1, t2)
	runID := rep.span(trace, id, "run", t3, t4)
	tot := opTotals{run: t4 - t3, buildProto: t1 - t0, buildAdv: t2 - t1}
	if err != nil {
		return tot, err
	}
	tot.rounds, tot.messages, tot.corrupt = res.Stats.Rounds, res.Stats.Messages, res.Stats.CorruptedEdgeRounds
	if tr != nil {
		tr.fold(&tot, rep, trace, runID, t3, lv == nodeLevel)
	}
	if err := sameRun(res, tc.ref); err != nil {
		return tot, fmt.Errorf("%s run differs from the by-name run: %w", levelNames[lv], err)
	}
	return tot, verify(res, nil, tc.check)
}

var levelNames = [levels]string{"untraced", "phase", "node"}

// fold turns the recorded timeline into spans under the run span and sums
// it into tot. The final round start with no delivery is the drain: the
// step in which every node finished.
func (t *runTrace) fold(tot *opTotals, rep *report, trace, runID int, runStart int64, node bool) {
	if len(t.starts) == 0 {
		return
	}
	tot.setup = t.starts[0] - runStart
	rep.span(trace, runID, "setup", runStart, t.starts[0])
	for r, end := range t.delivered {
		id := rep.span(trace, runID, fmt.Sprintf("round[%d]", r), t.starts[r], end)
		tot.round += end - t.starts[r]
		if node {
			rep.aggregate(trace, id, "compute", t.compute[r])
			tot.computeInRound += t.compute[r]
		}
		if t.intercept[r] > 0 {
			rep.aggregate(trace, id, "intercept", t.intercept[r])
			tot.intercept += t.intercept[r]
		}
		if r+1 < len(t.starts) {
			rep.span(trace, runID, fmt.Sprintf("interround[%d]", r), end, t.starts[r+1])
			tot.interround += t.starts[r+1] - end
		}
	}
	tot.compute = tot.computeInRound
	if last := len(t.starts) - 1; last >= len(t.delivered) {
		id := rep.span(trace, runID, "drain", t.starts[last], t.done)
		tot.drain = t.done - t.starts[last]
		if node {
			rep.aggregate(trace, id, "compute", t.compute[last])
			tot.compute += t.compute[last]
		}
	}
	tot.steps = t.steps
}

// traceDirect runs the cells untraced, phase-traced and node-traced, ops
// times each with the levels interleaved, and sets the graph, registry,
// adversary, congest, protocol and trace metrics. An op runs every cell
// once; checks[i] (nil for none) validates cell i.
func traceDirect(cells []cell, seed int64, checks []checker, ops int, rep *report) error {
	graphs := make([]*mc.Graph, len(cells))
	var graphMS []float64
	for range ops {
		trace := rep.newTrace()
		start := rep.now()
		root := rep.span(trace, -1, "build.graphs", start, start)
		for i, c := range cells {
			t0 := rep.now()
			g, err := mc.BuildTopology(c.topo, c.n, c.k)
			if err != nil {
				return err
			}
			rep.span(trace, root, "build.graph", t0, rep.now())
			graphs[i] = g
		}
		rep.spans[root].End = rep.now()
		graphMS = append(graphMS, float64(rep.spans[root].End-start)/1e6)
	}
	rep.set("graph.build_ms", median(graphMS), "ms", len(graphMS))
	tcs := make([]*tracedCell, len(cells))
	for i, c := range cells {
		tc, err := newTracedCell(c, seed, graphs[i], checks[i], rep)
		if err != nil {
			return err
		}
		tcs[i] = tc
	}

	var samples [levels][]opTotals
	for i := range ops + 1 {
		for lv := range levels {
			trace := rep.newTrace()
			name := "op " + levelNames[lv]
			if i == 0 {
				name = "warmup " + levelNames[lv]
			}
			start := rep.now()
			root := rep.span(trace, -1, name, start, start)
			var tot opTotals
			for _, tc := range tcs {
				p, err := tc.op(lv, rep, trace, root)
				rep.check(err)
				tot.add(p)
			}
			rep.spans[root].End = rep.now()
			tot.wall = rep.spans[root].End - start
			if i > 0 {
				samples[lv] = append(samples[lv], tot)
			}
		}
	}
	setTraceMetrics(samples, rep)
	return nil
}

func setTraceMetrics(samples [levels][]opTotals, rep *report) {
	med := func(lv level, f func(o opTotals) float64) float64 {
		vs := make([]float64, len(samples[lv]))
		for i, o := range samples[lv] {
			vs[i] = f(o)
		}
		return median(vs)
	}
	n := len(samples[phaseLevel])
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	set := func(name, unit string, lv level, f func(o opTotals) float64) {
		rep.set(name, med(lv, f), unit, n)
	}
	set("protoregistry.build_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.buildProto) })
	set("adversary.build_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.buildAdv) })
	set("adversary.intercept_share", "ratio", phaseLevel, func(o opTotals) float64 { return float64(o.intercept) / float64(o.round) })
	set("adversary.corrupted_edge_rounds", "count", phaseLevel, func(o opTotals) float64 { return float64(o.corrupt) })
	set("congest.setup_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.setup) })
	set("congest.round_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.round) })
	set("congest.interround_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.interround) })
	set("congest.drain_ms", "ms", phaseLevel, func(o opTotals) float64 { return ms(o.drain) })
	set("congest.rounds", "count", phaseLevel, func(o opTotals) float64 { return float64(o.rounds) })
	set("congest.messages", "count", phaseLevel, func(o opTotals) float64 { return float64(o.messages) })
	set("trace.coverage", "ratio", phaseLevel, func(o opTotals) float64 {
		return float64(o.setup+o.round+o.interround+o.drain) / float64(o.run)
	})
	// Node code is only visible at node level; engine self time is what is
	// left of the rounds there once node code and the adversary are taken
	// out, so the three sum to that level's round time.
	set("congest.engine_self_ms", "ms", nodeLevel, func(o opTotals) float64 { return ms(o.round - o.computeInRound - o.intercept) })
	set("congest.node_steps", "count", nodeLevel, func(o opTotals) float64 { return float64(o.steps) })
	set("protocol.compute_ms", "ms", nodeLevel, func(o opTotals) float64 { return ms(o.compute) })
	set("protocol.compute_share", "ratio", nodeLevel, func(o opTotals) float64 { return float64(o.compute) / float64(o.run) })
	steps := med(nodeLevel, func(o opTotals) float64 { return float64(o.steps) })
	rep.set("congest.ns_per_node_step", med(phaseLevel, func(o opTotals) float64 { return float64(o.round + o.drain) })/steps, "ns", n)
	wall := func(o opTotals) float64 { return float64(o.wall) }
	base := med(untraced, wall)
	rep.set("trace.overhead_frac.phase", med(phaseLevel, wall)/base-1, "ratio", n)
	rep.set("trace.overhead_frac.node", med(nodeLevel, wall)/base-1, "ratio", n)
}
