package mobilecongest

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
)

// The experiment Plan API: the primary way to describe a parameter study.
// A Plan holds an ordered list of Axes — each axis is one swept dimension
// (topology family, node count, protocol name and parameter, adversary and
// strength, engine, bandwidth) — and executes their cross product with
// deterministic per-cell seeds, either streamed as cells finish
// (Plan.Stream) or collected in grid order (Plan.Run).
//
// Seeds are canonical in the cell's coordinates: every seed-relevant axis
// value contributes a "name=value" fragment, in axis order, to the cell's
// label, and CellSeed hashes that label with the base seed and repetition
// index. The engine axis is an execution detail and deliberately excluded,
// so the same simulation cell draws the same randomness on every engine;
// adding a new axis to a plan reshapes labels (and therefore seeds) only
// for plans that use it, so every pre-existing cell keeps its seed.

// cellSpec is the typed accumulation of one cell's axis values.
type cellSpec struct {
	topoName     string
	topoN, topoK int
	protoName    string
	protoP       int
	advName      string
	advF         int
	engName      string
	bandwidth    int
	rep          int
}

// axisValue is one point on an axis: an optional label fragment (feeding
// the cell seed when seed is set) plus the typed application to the spec.
type axisValue struct {
	part string
	seed bool
	set  func(*cellSpec)
}

// axisKind identifies the dimension an axis configures, so plan validation
// can reason about structure (duplicate axes, the p-axis pairing rule).
type axisKind int

const (
	axisTopology axisKind = iota
	axisN
	axisK
	axisProtocol
	axisProtocolParam
	axisAdversary
	axisF
	axisEngine
	axisBandwidth
	axisReps
)

// Axis is one dimension of a Plan: a named, ordered list of values. Build
// axes with the typed constructors (TopologyAxis, NAxis, ProtocolAxis, ...).
type Axis struct {
	name   string
	kind   axisKind
	values []axisValue
	// check validates the axis's registry names up front, so a bad plan
	// fails before any cell is built.
	check func() error
}

// Name returns the axis's dimension name.
func (a Axis) Name() string { return a.name }

// Len returns the number of values on the axis.
func (a Axis) Len() int { return len(a.values) }

// TopologyAxis sweeps the topology family by registry name.
func TopologyAxis(names ...string) Axis {
	return nameAxis("topology", axisTopology, "topo", true, topologies.Check, names, func(c *cellSpec, v string) { c.topoName = v })
}

// NAxis sweeps the node count.
func NAxis(ns ...int) Axis {
	return intAxis("n", axisN, "n", true, ns, func(c *cellSpec, v int) { c.topoN = v })
}

// KAxis sweeps the topology's secondary parameter (0 = family default).
func KAxis(ks ...int) Axis {
	return intAxis("k", axisK, "k", true, ks, func(c *cellSpec, v int) { c.topoK = v })
}

// ProtocolAxis sweeps the workload by protocol registry name. Cells carry
// the name in Record.Protocol; plans without a protocol axis run the default
// workload (FloodMax over diameter+1 rounds) and keep their pre-protocol
// labels and seeds.
func ProtocolAxis(names ...string) Axis {
	return nameAxis("protocol", axisProtocol, "proto", true, protocols.Check, names, func(c *cellSpec, v string) { c.protoName = v })
}

// ProtocolParamAxis sweeps the registered protocol's schedule parameter
// (rounds/radius/iterations; 0 = family default), carried in Record.P.
func ProtocolParamAxis(ps ...int) Axis {
	return intAxis("p", axisProtocolParam, "p", true, ps, func(c *cellSpec, v int) { c.protoP = v })
}

// AdversaryAxis sweeps the adversary by registry name.
func AdversaryAxis(names ...string) Axis {
	return nameAxis("adversary", axisAdversary, "adv", true, adversaries.Check, names, func(c *cellSpec, v string) { c.advName = v })
}

// FAxis sweeps the adversary's per-round strength.
func FAxis(fs ...int) Axis {
	return intAxis("f", axisF, "f", true, fs, func(c *cellSpec, v int) { c.advF = v })
}

// EngineAxis sweeps the execution engine by registry name. The engine is an
// execution detail: it is part of the record and the cell name, but
// deliberately NOT of the seed derivation, so the same simulation cell gets
// the same randomness on every engine.
func EngineAxis(names ...string) Axis {
	return nameAxis("engine", axisEngine, "engine", false, congest.Engines.Check, names, func(c *cellSpec, v string) { c.engName = v })
}

// BandwidthAxis sweeps the enforced per-edge-per-round bit budget
// (WithBandwidth); 0 means unlimited. Like the engine, the budget is an
// enforcement detail: it is part of the record and the cell name, but
// deliberately NOT of the seed derivation, so the same simulation cell sends
// the same traffic under every budget — the axis varies only which cells
// abort with a bandwidth violation.
func BandwidthAxis(bits ...int) Axis {
	return intAxis("bandwidth", axisBandwidth, "bw", false, bits, func(c *cellSpec, v int) { c.bandwidth = v })
}

// nameAxis builds a built-in axis over registry names, labelled key=name
// and checked against the registry before any cell is built.
func nameAxis(name string, kind axisKind, key string, seed bool, check func(...string) error, names []string, set func(*cellSpec, string)) Axis {
	vals := make([]axisValue, len(names))
	for i, v := range names {
		vals[i] = axisValue{part: key + "=" + v, seed: seed, set: func(c *cellSpec) { set(c, v) }}
	}
	return Axis{name: name, kind: kind, values: vals, check: func() error { return check(names...) }}
}

// intAxis builds a built-in integer axis, labelled key=value.
func intAxis(name string, kind axisKind, key string, seed bool, ints []int, set func(*cellSpec, int)) Axis {
	vals := make([]axisValue, len(ints))
	for i, v := range ints {
		vals[i] = axisValue{part: key + "=" + strconv.Itoa(v), seed: seed, set: func(c *cellSpec) { set(c, v) }}
	}
	return Axis{name: name, kind: kind, values: vals}
}

// RepsAxis repeats every cell reps times with distinct derived seeds
// (values below 1 mean 1). The repetition index feeds CellSeed directly and
// appears as the trailing ",rep=N" of the record name regardless of the
// axis's position; the position only controls how reps interleave with the
// other axes in cell order.
func RepsAxis(reps int) Axis {
	if reps < 1 {
		reps = 1
	}
	vals := make([]axisValue, reps)
	for r := range vals {
		vals[r] = axisValue{set: func(c *cellSpec) { c.rep = r }}
	}
	return Axis{name: "reps", kind: axisReps, values: vals}
}

// Plan is an experiment description: the ordered cross product of its axes,
// one Scenario per cell. The zero value of every field is usable; a Plan
// with no axes describes a single default cell.
type Plan struct {
	// Axes are the swept dimensions, in label (and iteration) order: the
	// first axis varies slowest. Axes a plan omits take the registry
	// defaults (clique topology, n=16, k=0, fault-free, f=1, step engine,
	// one rep, default workload).
	Axes []Axis
	// BaseSeed feeds the per-cell seed derivation (CellSeed).
	BaseSeed int64
	// MaxRounds bounds each run (0 = engine default). It is one value for
	// the whole Plan; sweep it as one Plan per value.
	MaxRounds int
	// Workers is the number of concurrent cell runners for Stream/Run
	// (0 = GOMAXPROCS). A worker runs consecutive cells on one graph in one
	// congest.RunContext, which keeps the last built-in adversary those
	// cells built by name (a later cell restarts it from its own seed).
	// Between graphs it parks that context in a pool every Plan of the
	// process shares and takes one bound to the next graph, when one is
	// parked. The pool caps the layout slots (directed edges) it keeps
	// parked, not their bytes: for plain protocols that is some 60 MB, but
	// a compiler context also keeps its node scratch, about 11 KB a slot
	// for hardened-clique, so a full pool of those holds about 2.9 GB
	// (ROADMAP.md, "Bound what the run-context pool keeps by bytes").
	Workers int
	// CaptureTrace attaches a TraceObserver to every cell and stores the
	// captured rounds in the cell's Record.Trace. Traces hold full
	// payloads; budget accordingly on large plans.
	CaptureTrace bool
	// Observers, when non-nil, builds extra per-cell observers; it is
	// called once per cell with the cell's Record.Name. Cells run
	// concurrently, so anything the returned observers share (e.g. a
	// writer) must tolerate that — see NewJSONLTrace.
	Observers func(cellName string) []Observer
	// Cache, when non-nil, memoizes cell records content-addressed by the
	// cell's canonical name (plus MaxRounds and trace capture), derived
	// seed, engine, and the build's code version. Cached cells are resolved
	// at expansion — no graph, Scenario, or RunContext is touched — and
	// yielded through the normal worker pipeline, preserving Run's
	// deterministic order and Stream's cancellation semantics; freshly
	// computed error-free records are inserted. Plans with per-cell
	// Observers always run their cells: the observers watch rounds a
	// replay never executes. One cache may back any number of concurrent
	// Plans; see NewResultCache / OpenResultCache.
	Cache *ResultCache
}

// planCell is one expanded plan point. A nil scenario marks a cell resolved
// from the cache at expansion: its record is already final and the workers
// just deliver it. cacheKey is non-empty when the freshly computed record
// should be inserted after the run. g is the graph the cell runs on, pool
// its key in the run-context pool, and adv the key its named adversary is
// kept under (zero when it is not a built-in one).
type planCell struct {
	rec      Record
	scenario *Scenario
	trace    *TraceObserver // non-nil when the plan captures traces
	cache    *ResultCache
	cacheKey string
	g        *Graph
	pool     graphKey
	adv      advKey
}

// cells expands the plan's cross product, validating every registry name up
// front and taking each distinct topology from the run-context pool or
// building it, once.
func (p Plan) cells() ([]planCell, error) {
	seen := map[axisKind]bool{}
	for _, ax := range p.Axes {
		if len(ax.values) == 0 {
			return nil, fmt.Errorf("mobilecongest: plan axis %q has no values", ax.name)
		}
		if ax.check != nil {
			if err := ax.check(); err != nil {
				return nil, err
			}
		}
		// Duplicate axes would stack label fragments for one dimension
		// ("n=16,n=32") while only the innermost value applies.
		if seen[ax.kind] {
			return nil, fmt.Errorf("mobilecongest: duplicate %s axis", ax.name)
		}
		seen[ax.kind] = true
	}
	// A p axis without a protocol axis would perturb every cell's seed while
	// changing nothing about the run — a fabricated effect. Fail loudly.
	if seen[axisProtocolParam] && !seen[axisProtocol] {
		return nil, fmt.Errorf("mobilecongest: ProtocolParamAxis requires a ProtocolAxis (the parameter only reaches registry protocols)")
	}

	// The generation is read before any build, so a graph built while a
	// RegisterTopology runs is stamped stale, never current.
	gen, advGen := topologies.Generation(), adversaries.Generation()
	graphs := map[graphKey]*Graph{}
	var cells []planCell
	var simParts, allParts []string

	var expand func(axis int, spec cellSpec) error
	assemble := func(spec cellSpec) error {
		simLabel := strings.Join(simParts, ",")
		label := strings.Join(allParts, ",")
		seed := CellSeed(p.BaseSeed, simLabel, spec.rep)
		name := fmt.Sprintf("%s,rep=%d", label, spec.rep)

		// Cache consult comes first: a hit resolves the cell from its record
		// alone — no topology build, no Scenario, and later no RunContext.
		// Per-cell Observers watch rounds a replay never executes, so their
		// plans bypass the cache. The cell name carries every axis fragment
		// plus the rep; MaxRounds and trace capture shape the record without
		// appearing in it, so they extend the key, and the engine (absent
		// from default cells' names) is its own key component.
		var cacheKey string
		if p.Cache != nil && p.Observers == nil {
			cacheKey = name
			if p.MaxRounds != 0 {
				cacheKey = fmt.Sprintf("%s,maxrounds=%d", cacheKey, p.MaxRounds)
			}
			if p.CaptureTrace {
				cacheKey += ",trace"
			}
			if rec, ok := p.Cache.get(cacheKey, seed, spec.engName); ok {
				cells = append(cells, planCell{rec: rec})
				return nil
			}
		}

		key := graphKey{topo: spec.topoName, n: spec.topoN, k: spec.topoK, gen: gen}
		g := graphs[key]
		if g == nil {
			g = runContexts.graph(key)
		}
		if g == nil {
			var err error
			if g, err = BuildTopology(spec.topoName, spec.topoN, spec.topoK); err != nil {
				return err
			}
		}
		graphs[key] = g

		// Observers are per-run state, so every cell gets its own instances.
		var obs []Observer
		if p.Observers != nil {
			obs = p.Observers(name)
		}
		var tr *TraceObserver
		if p.CaptureTrace {
			tr = NewTraceObserver()
			obs = append(obs, tr)
		}

		opts := []ScenarioOption{
			WithName(label),
			WithGraph(g),
		}
		if spec.protoName != "" {
			opts = append(opts, WithProtocolName(spec.protoName), WithProtocolParam(spec.protoP))
		} else {
			opts = append(opts, WithProtocol(algorithms.FloodMax(g.Diameter()+1)))
		}
		opts = append(opts,
			WithAdversaryName(spec.advName, spec.advF),
			WithEngineName(spec.engName),
			WithBandwidth(spec.bandwidth),
			WithSeed(seed),
			WithMaxRounds(p.MaxRounds),
			WithObserver(obs...),
		)
		cells = append(cells, planCell{
			rec: Record{
				Name:      name,
				Topology:  spec.topoName,
				N:         spec.topoN,
				K:         spec.topoK,
				Protocol:  spec.protoName,
				P:         spec.protoP,
				Adversary: spec.advName,
				F:         spec.advF,
				Engine:    spec.engName,
				Bandwidth: spec.bandwidth,
				Rep:       spec.rep,
				Seed:      seed,
			},
			scenario: NewScenario(opts...),
			trace:    tr,
			cache:    p.Cache,
			cacheKey: cacheKey,
			g:        g,
			pool:     key,
			adv:      keptKey(spec, advGen),
		})
		return nil
	}
	expand = func(axis int, spec cellSpec) error {
		if axis == len(p.Axes) {
			return assemble(spec)
		}
		for _, v := range p.Axes[axis].values {
			sp := spec
			if v.set != nil {
				v.set(&sp)
			}
			nSim, nAll := len(simParts), len(allParts)
			if v.part != "" {
				allParts = append(allParts, v.part)
				if v.seed {
					simParts = append(simParts, v.part)
				}
			}
			err := expand(axis+1, sp)
			simParts, allParts = simParts[:nSim], allParts[:nAll]
			if err != nil {
				return err
			}
		}
		return nil
	}
	root := cellSpec{
		topoName: "clique", topoN: 16, topoK: 0,
		advName: "none", advF: 1,
		engName: EngineStep.Name(),
	}
	if err := expand(0, root); err != nil {
		return nil, err
	}
	return cells, nil
}

// planWorker is one runCells worker's hold on a run context: rc, bound (or
// about to be bound) to g, the graph of the worker's last cell, and the
// adversary rc keeps.
type planWorker struct {
	rc     *congest.RunContext
	g      *Graph
	pool   graphKey // rc's key in the run-context pool
	adv    keptAdversary
	shards int // the LimitShards cap of the worker's contexts
}

// context returns the context to run c in. Consecutive cells on one graph
// share one context. On a new graph the worker takes the pooled context
// bound to it, or a new one, hands it the goroutines the old context kept
// between runs, and parks the old one.
func (w *planWorker) context(c *planCell) *congest.RunContext {
	if w.rc != nil && c.g == w.g {
		return w.rc
	}
	next, adv := runContexts.take(c.pool, c.g)
	if next == nil {
		next = congest.NewRunContext()
	}
	next.LimitShards(w.shards)
	if w.rc != nil {
		w.rc.HandOff(next)
		w.release()
	}
	w.rc, w.g, w.pool, w.adv = next, c.g, c.pool, adv
	return next
}

// release parks the worker's context in the pool, with the adversary it
// keeps; the pool keeps no goroutine the worker started.
func (w *planWorker) release() {
	if w.rc != nil {
		runContexts.park(w.pool, w.g, w.rc, w.adv)
		w.rc, w.adv = nil, keptAdversary{}
	}
}

// keptKey returns the key a cell's named adversary is kept under: zero
// unless its registration is a built-in one, whose instances restart from a
// new seed exactly as a new build (a user's AdversaryFunc may derive more
// than the seed from its seed argument). gen is the registry's generation,
// read before the lookup.
func keptKey(spec cellSpec, gen uint64) advKey {
	if e, _ := adversaries.Get(spec.advName); !e.builtIn {
		return advKey{}
	}
	return advKey{name: spec.advName, f: spec.advF, gen: gen}
}

// lendAdversary gives c's scenario the adversary the worker's context
// keeps, when c's is kept under the same key, restarted from the cell's
// seed as BuildAdversary would seed a new one. It reports whether it did.
func (w *planWorker) lendAdversary(c *planCell) bool {
	if w.adv.adv == nil || w.adv.key != c.adv {
		return false
	}
	w.adv.adv.Reseed(c.scenario.seed ^ advSeedMix)
	c.scenario.namedAdv = w.adv.adv
	return true
}

// keepAdversary keeps the adversary c's scenario built by name with the
// worker's context, in place of the one it kept. The registry must still
// be at c's generation: then no Register preceded the build, which used
// the built-in entry keptKey saw.
func (w *planWorker) keepAdversary(c *planCell) {
	a, ok := c.scenario.namedAdv.(reseeder)
	if ok && c.adv != (advKey{}) && adversaries.Generation() == c.adv.gen {
		w.adv = keptAdversary{key: c.adv, adv: a}
	}
}

// run executes one cell and folds the outcome into its record; failures are
// recorded, never fatal. Cells resolved from the cache at expansion (nil
// scenario) are already final — their record keeps the elapsed time of the
// run that filled the cache, so a warm replay is byte-identical to the cold
// sweep it mirrors.
func (w *planWorker) run(c *planCell) {
	if c.scenario == nil {
		return
	}
	rc := w.context(c)
	lent := w.lendAdversary(c)
	start := time.Now()
	res, err := c.scenario.runIn(rc)
	if !lent {
		w.keepAdversary(c)
	}
	c.rec.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		c.rec.Error = err.Error()
		return
	}
	c.rec.Rounds = res.Stats.Rounds
	c.rec.Messages = res.Stats.Messages
	c.rec.Bytes = res.Stats.Bytes
	c.rec.MaxMsgBytes = res.Stats.MaxMsgBytes
	c.rec.MaxEdgeCongestion = res.Stats.MaxEdgeCongestion
	c.rec.CorruptedEdgeRounds = res.Stats.CorruptedEdgeRounds
	if c.trace != nil {
		c.rec.Trace = c.trace.Rounds()
	}
	if c.cache != nil && c.cacheKey != "" {
		c.cache.put(c.cacheKey, c.rec.Seed, c.rec.Engine, c.rec)
	}
}

// runCells fans the cells out across workers and calls deliver (from the
// caller's goroutine) with each cell index as it finishes. deliver returning
// false, or ctx cancellation, stops dispatching new cells; in-flight cells
// still complete (and, on cancellation, are still delivered) before runCells
// returns with every worker goroutine exited and every worker's context
// parked, so no shard pool or node coroutine outlives it.
func runCells(ctx context.Context, workers int, cells []planCell, deliver func(int) bool) {
	if len(cells) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range cells {
			select {
			case jobs <- i:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	results := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cells run in contexts bound to their graphs, kept warm across
			// cells and, through the run-context pool, across Plans: the
			// run's layout, buffers, RNGs, node scratch and named
			// adversaries are reused instead of rebuilt. Shard-engine cells
			// divide the machine across the P workers instead of each
			// grabbing GOMAXPROCS shards (an explicit ShardEngine.Shards
			// still overrides).
			// Retiring parks the worker's context, which releases its shard
			// pool and node coroutines.
			w := planWorker{shards: max(1, runtime.GOMAXPROCS(0)/workers)}
			defer w.release()
			for i := range jobs {
				w.run(&cells[i])
				select {
				case results <- i:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// On early exit (deliver returned false), release every blocked worker
	// and drain the pipeline so no goroutine leaks.
	defer func() {
		halt()
		for range results {
		}
	}()
	for i := range results {
		if !deliver(i) {
			return
		}
	}
}

// Stream expands the plan and yields one (Record, nil) per cell as cells
// finish — completion order, not grid order; run with Workers set to 1 for
// in-order streaming. Per-cell failures are carried in Record.Error. The
// sequence ends after the last cell, or, when ctx is cancelled mid-stream,
// after the in-flight cells: dispatching stops promptly, every worker exits,
// and the final yield is (Record{}, ctx.Err()). A plan configuration error
// (unknown registry name, unbuildable topology, empty axis) is yielded as
// the only element.
func (p Plan) Stream(ctx context.Context) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		cells, err := p.cells()
		if err != nil {
			yield(Record{}, err)
			return
		}
		stopped := false
		runCells(ctx, p.Workers, cells, func(i int) bool {
			if !yield(cells[i].rec, nil) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
		if err := ctx.Err(); err != nil {
			yield(Record{}, err)
		}
	}
}

// Run executes the plan and returns every cell's record in grid order —
// the deterministic cross-product order of the axes, regardless of worker
// count or scheduling. Per-cell failures are recorded, not fatal; the error
// reports plan configuration problems, or ctx cancellation. On cancellation
// the full record set is still returned: completed cells carry their
// results, and cells that never ran carry their coordinates with
// Record.Error set to the cancellation cause — so feeding the records to
// Summarize can never silently average empty stats into the aggregates.
func (p Plan) Run(ctx context.Context) ([]Record, error) {
	cells, err := p.cells()
	if err != nil {
		return nil, err
	}
	done := make([]bool, len(cells))
	runCells(ctx, p.Workers, cells, func(i int) bool { done[i] = true; return true })
	records := make([]Record, len(cells))
	for i := range cells {
		records[i] = cells[i].rec
		if !done[i] && records[i].Error == "" {
			records[i].Error = fmt.Sprintf("mobilecongest: cell not run: %v", context.Cause(ctx))
		}
	}
	return records, ctx.Err()
}
