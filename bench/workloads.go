package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	mc "mobilecongest"
)

// engineName is the engine every workload runs on: the scenario default, and
// the only engine the tracer supports, because it steps every node from one
// scheduler goroutine.
const engineName = "step"

// cell is one simulation, named the way a PlanSpec names it.
type cell struct {
	topo  string
	n, k  int
	proto string
	p     int
	adv   string
	f     int
}

func (c cell) String() string {
	return fmt.Sprintf("%s n=%d k=%d %s p=%d %s f=%d", c.topo, c.n, c.k, c.proto, c.p, c.adv, c.f)
}

// byName assembles the cell's scenario by registry name, the way a library
// user does, so every Run pays the protocol and adversary builds.
func (c cell) byName(seed int64) *mc.Scenario {
	return mc.NewScenario(
		mc.WithTopology(c.topo, c.n, c.k),
		mc.WithProtocolName(c.proto),
		mc.WithProtocolParam(c.p),
		mc.WithAdversaryName(c.adv, c.f),
		mc.WithEngineName(engineName),
		mc.WithSeed(seed),
	)
}

// workload is one set of inputs the benchmark runs. Its PlanSpec is its
// served form; the spec's cells are its direct form.
type workload struct {
	name string
	spec mc.PlanSpec
	// served workloads POST spec to mobilesimd in an open loop; the others
	// time Scenario.Run on their single cell in a closed loop.
	served bool
	// check builds the output check for a run workload's cell and seed.
	check func(c cell, seed int64) (checker, error)
}

var workloads = []workload{
	// The CONGEST engine does nearly all the work: 131k node steps and 1M
	// messages per run, with trivial node code and no adversary.
	{
		name:  "flood-large",
		spec:  oneCell(cell{"circulant", 16384, 4, "floodmax", 8, "none", 1}),
		check: floodCheck,
	},
	// The Theorem 1.6 compiler: node compute and allocation dominate, and
	// the adversary takes its write path.
	{
		name: "byz-clique",
		spec: oneCell(cell{"clique", 16, 0, "hardened-clique", 0, "flip", 2}),
		check: referenceCheck(func(c cell) cell {
			c.adv = "none"
			return c
		}, true),
	},
	// The Theorem 1.2 compiler: a second compiler family under a read-only
	// adversary, with 8x less allocation per run than byz-clique.
	{
		name: "secure-circulant",
		spec: oneCell(cell{"circulant", 128, 4, "secure-broadcast", 0, "eavesdrop", 2}),
		check: referenceCheck(func(c cell) cell {
			c.proto, c.adv = "broadcast", "none"
			return c
		}, false),
	},
	// The only workload through planspec, plan, resultcache and mobilesimd:
	// small cells under open-loop load, with cache hits and misses.
	{
		name:   "served-mixed",
		served: true,
		spec: mc.PlanSpec{
			Topologies:  []string{"clique", "circulant"},
			Ns:          []int{16, 64},
			Protocols:   []string{"floodmax", "bfs"},
			Adversaries: []string{"none", "flip"},
			Fs:          []int{1},
			Engines:     []string{engineName},
			Workers:     1,
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// oneCell is the single-cell spec of c, served in grid order by one worker.
func oneCell(c cell) mc.PlanSpec {
	sp := mc.PlanSpec{
		Topologies:  []string{c.topo},
		Ns:          []int{c.n},
		Ks:          []int{c.k},
		Protocols:   []string{c.proto},
		Adversaries: []string{c.adv},
		Fs:          []int{c.f},
		Engines:     []string{engineName},
		Workers:     1,
	}
	if c.p > 0 {
		sp.Ps = []int{c.p}
	}
	return sp
}

// cellsOf expands a spec's axes in grid order. Specs here name every axis
// except possibly k and p, whose defaults are 0.
func cellsOf(sp mc.PlanSpec) []cell {
	orZero := func(v []int) []int {
		if len(v) == 0 {
			return []int{0}
		}
		return v
	}
	var cells []cell
	for _, topo := range sp.Topologies {
		for _, n := range sp.Ns {
			for _, k := range orZero(sp.Ks) {
				for _, proto := range sp.Protocols {
					for _, p := range orZero(sp.Ps) {
						for _, adv := range sp.Adversaries {
							for _, f := range sp.Fs {
								cells = append(cells, cell{topo, n, k, proto, p, adv, f})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// load sizes a run: how many set-ups, warm-ups and traced ops, how long the
// timed phase is, and the served traffic shape.
type load struct {
	setups, warmups, traceOps int
	seconds                   float64
	// steps are the open-loop rate steps; steps[mainStep] gives the
	// end-to-end latencies.
	steps    []rateStep
	mainStep int
	// capacitySeconds is the closed-loop phase that measures throughput.
	capacitySeconds float64
	conns           int
	pool            int // seeds requested before timing, which later hits reuse
	probe           int // requests in a run workload's served probe
	verify          int // fresh requests recomputed in-process afterwards
	replayMax       int // requests of the main step replayed in-process
}

type rateStep struct {
	rate    float64 // requests per second
	seconds float64
}

// defaultLoad spreads the timed seconds over the served phases: two fifths
// at 150 req/s, a fifth each at 250 and 350 req/s, and a fifth in the
// closed-loop capacity phase. The end-to-end latencies come from 150 req/s,
// about 40% of the server's closed-loop capacity on the reference host:
// nearer that capacity, queueing behind misses makes a hit's latency swing
// by 40% from run to run. A run workload's served probe reuses two
// seeds; the served workload spreads its hits over sixteen.
func defaultLoad(seconds float64, served bool) load {
	pool := 2
	if served {
		pool = 16
	}
	return load{
		setups:          7,
		warmups:         3,
		traceOps:        5,
		seconds:         seconds,
		steps:           []rateStep{{150, seconds * 2 / 5}, {250, seconds / 5}, {350, seconds / 5}},
		mainStep:        0,
		capacitySeconds: seconds / 5,
		conns:           min(2, runtime.NumCPU()),
		pool:            pool,
		probe:           10,
		verify:          100,
		replayMax:       600,
	}
}

// request is one served sweep: the PlanSpec body POSTed and whether its
// base seed was requested before, so the server must answer from its cache.
type request struct {
	hit  bool
	seed int64
	body []byte
}

// inputs are everything a workload run consumes, generated from the run's
// seed alone; workload code receives only these.
type inputs struct {
	seed     int64       // scenario seed of the direct cells
	pool     []request   // requested before timing; hits reuse these seeds
	steps    [][]request // open-loop sequence per rate step (served)
	capacity []request   // closed-loop sequence (served)
	probe    []request   // closed-loop sequence for the served probe (run workloads)
	verify   []int       // indices into the concatenated steps to recompute (served)
}

// isMiss fixes the request mix: every second request draws a fresh seed, so
// half the requests miss the cache and half hit it. The mix is synthetic and
// unverified, because there are no request logs to take it from; hits and
// misses are timed apart, so that neither latency depends on it.
func isMiss(i int) bool { return i%2 == 1 }

func generate(w workload, seed int64, ld load) inputs {
	rng := rand.New(rand.NewSource(seed))
	mk := func(hit bool, s int64) request {
		sp := w.spec
		sp.BaseSeed = s
		// A PlanSpec holds only strings and ints, so marshalling cannot fail.
		body, _ := json.Marshal(sp)
		return request{hit: hit, seed: s, body: body}
	}
	fresh := func() request { return mk(false, rng.Int63n(1<<62)+1) }
	in := inputs{seed: seed}
	for range ld.pool {
		in.pool = append(in.pool, fresh())
	}
	seq := func(n int) []request {
		out := make([]request, n)
		for i := range out {
			if isMiss(i) {
				out[i] = fresh()
			} else {
				out[i] = mk(true, in.pool[rng.Intn(len(in.pool))].seed)
			}
		}
		return out
	}
	if !w.served {
		in.probe = seq(ld.probe)
		return in
	}
	var misses []int
	offset := 0
	for _, st := range ld.steps {
		reqs := seq(max(1, int(st.rate*st.seconds)))
		for i, r := range reqs {
			if !r.hit {
				misses = append(misses, offset+i)
			}
		}
		offset += len(reqs)
		in.steps = append(in.steps, reqs)
	}
	// Generous: closed-loop capacity stays well below 2000 req/s here.
	in.capacity = seq(int(2000*ld.capacitySeconds) + 10)
	for _, i := range rng.Perm(len(misses))[:min(ld.verify, len(misses))] {
		in.verify = append(in.verify, misses[i])
	}
	return in
}

// checker validates one run's result.
type checker func(res *mc.Result) error

// verify folds a run's error and its output check into one outcome.
func verify(res *mc.Result, err error, check checker) error {
	if err != nil {
		return err
	}
	if check == nil {
		return nil
	}
	return check(res)
}

// floodCheck expects every node's output to be the largest ID within p hops,
// computed here by a bounded BFS from every node.
func floodCheck(c cell, _ int64) (checker, error) {
	g, err := mc.BuildTopology(c.topo, c.n, c.k)
	if err != nil {
		return nil, err
	}
	want := make([]uint64, g.N())
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	var queue []mc.NodeID
	for src := range g.N() {
		queue = append(queue[:0], mc.NodeID(src))
		dist[src] = 0
		best := uint64(src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			best = max(best, uint64(u))
			if dist[u] == c.p {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, u := range queue {
			dist[u] = -1
		}
		want[src] = best
	}
	return func(res *mc.Result) error {
		for u, o := range res.Outputs {
			if v, ok := o.(uint64); !ok || v != want[u] {
				return fmt.Errorf("floodmax: node %d output %v, want %d", u, o, want[u])
			}
		}
		return nil
	}, nil
}

// referenceCheck expects the run's outputs to equal those of the reference
// cell derived from it, run on the same seed; allEqual also demands that
// every node agrees.
func referenceCheck(derive func(cell) cell, allEqual bool) func(cell, int64) (checker, error) {
	return func(c cell, seed int64) (checker, error) {
		ref, err := derive(c).byName(seed).Run()
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		return func(res *mc.Result) error {
			if len(res.Outputs) != len(ref.Outputs) {
				return fmt.Errorf("%d outputs, reference has %d", len(res.Outputs), len(ref.Outputs))
			}
			for u, o := range res.Outputs {
				if o != ref.Outputs[u] {
					return fmt.Errorf("node %d output %v, reference %v", u, o, ref.Outputs[u])
				}
				if allEqual && o != res.Outputs[0] {
					return fmt.Errorf("node %d output %v differs from node 0's %v", u, o, res.Outputs[0])
				}
			}
			return nil
		}, nil
	}
}

// sameRun reports how got differs from want in Stats or outputs, if at all.
func sameRun(got, want *mc.Result) error {
	if got.Stats != want.Stats {
		return fmt.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Outputs) != len(want.Outputs) {
		return fmt.Errorf("%d outputs, want %d", len(got.Outputs), len(want.Outputs))
	}
	for u, o := range got.Outputs {
		if !reflect.DeepEqual(o, want.Outputs[u]) {
			return fmt.Errorf("node %d output %v, want %v", u, o, want.Outputs[u])
		}
	}
	return nil
}
