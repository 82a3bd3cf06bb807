package mobilecongest

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"time"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
)

// The experiment Plan API: the primary way to describe a parameter study.
// A Plan holds an ordered list of Axes — each axis is one swept dimension
// (topology family, node count, protocol name, adversary, engine, a
// user-defined knob via VaryFunc) — and executes their cross product with
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
	custom       []customSetting
}

type customSetting struct {
	apply func(*Scenario, string)
	value string
}

// axisValue is one point on an axis: an optional label fragment (feeding
// the cell seed when seed is set) plus the typed application to the spec.
type axisValue struct {
	part string
	seed bool
	set  func(*cellSpec)
}

// axisKind identifies the built-in dimension an axis configures, so plan
// validation can reason about structure (duplicate built-ins, the p-axis
// pairing rule) without trusting display names, which user VaryFunc axes
// are free to reuse.
type axisKind int

const (
	axisCustom axisKind = iota
	axisTopology
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
// axes with the typed constructors (TopologyAxis, NAxis, ProtocolAxis, ...)
// or VaryFunc for user-defined dimensions.
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
	vals := make([]axisValue, len(names))
	for i, name := range names {
		vals[i] = axisValue{part: "topo=" + name, seed: true, set: func(c *cellSpec) { c.topoName = name }}
	}
	return Axis{name: "topology", kind: axisTopology, values: vals}
}

// NAxis sweeps the node count.
func NAxis(ns ...int) Axis {
	vals := make([]axisValue, len(ns))
	for i, n := range ns {
		vals[i] = axisValue{part: fmt.Sprintf("n=%d", n), seed: true, set: func(c *cellSpec) { c.topoN = n }}
	}
	return Axis{name: "n", kind: axisN, values: vals}
}

// KAxis sweeps the topology's secondary parameter (0 = family default).
func KAxis(ks ...int) Axis {
	vals := make([]axisValue, len(ks))
	for i, k := range ks {
		vals[i] = axisValue{part: fmt.Sprintf("k=%d", k), seed: true, set: func(c *cellSpec) { c.topoK = k }}
	}
	return Axis{name: "k", kind: axisK, values: vals}
}

// ProtocolAxis sweeps the workload by protocol registry name. Cells carry
// the name in Record.Protocol; plans without a protocol axis run the default
// workload (FloodMax over diameter+1 rounds) and keep their pre-protocol
// labels and seeds.
func ProtocolAxis(names ...string) Axis {
	vals := make([]axisValue, len(names))
	for i, name := range names {
		vals[i] = axisValue{part: "proto=" + name, seed: true, set: func(c *cellSpec) { c.protoName = name }}
	}
	return Axis{name: "protocol", kind: axisProtocol, values: vals, check: func() error {
		for _, name := range names {
			if !HasProtocol(name) {
				return fmt.Errorf("mobilecongest: unknown protocol %q (have %v)", name, Protocols())
			}
		}
		return nil
	}}
}

// ProtocolParamAxis sweeps the registered protocol's schedule parameter
// (rounds/radius/iterations; 0 = family default), carried in Record.P.
func ProtocolParamAxis(ps ...int) Axis {
	vals := make([]axisValue, len(ps))
	for i, p := range ps {
		vals[i] = axisValue{part: fmt.Sprintf("p=%d", p), seed: true, set: func(c *cellSpec) { c.protoP = p }}
	}
	return Axis{name: "p", kind: axisProtocolParam, values: vals}
}

// AdversaryAxis sweeps the adversary by registry name.
func AdversaryAxis(names ...string) Axis {
	vals := make([]axisValue, len(names))
	for i, name := range names {
		vals[i] = axisValue{part: "adv=" + name, seed: true, set: func(c *cellSpec) { c.advName = name }}
	}
	return Axis{name: "adversary", kind: axisAdversary, values: vals, check: func() error {
		for _, name := range names {
			if !HasAdversary(name) {
				return fmt.Errorf("mobilecongest: unknown adversary %q (have %v)", name, Adversaries())
			}
		}
		return nil
	}}
}

// FAxis sweeps the adversary's per-round strength.
func FAxis(fs ...int) Axis {
	vals := make([]axisValue, len(fs))
	for i, f := range fs {
		vals[i] = axisValue{part: fmt.Sprintf("f=%d", f), seed: true, set: func(c *cellSpec) { c.advF = f }}
	}
	return Axis{name: "f", kind: axisF, values: vals}
}

// EngineAxis sweeps the execution engine by registry name. The engine is an
// execution detail: it is part of the record and the cell name, but
// deliberately NOT of the seed derivation, so the same simulation cell gets
// the same randomness on every engine.
func EngineAxis(names ...string) Axis {
	vals := make([]axisValue, len(names))
	for i, name := range names {
		vals[i] = axisValue{part: "engine=" + name, set: func(c *cellSpec) { c.engName = name }}
	}
	return Axis{name: "engine", kind: axisEngine, values: vals, check: func() error {
		for _, name := range names {
			if _, err := NewEngine(name); err != nil {
				return err
			}
		}
		return nil
	}}
}

// BandwidthAxis sweeps the enforced per-edge-per-round bit budget
// (WithBandwidth); 0 means unlimited. Like the engine, the budget is an
// enforcement detail: it is part of the record and the cell name, but
// deliberately NOT of the seed derivation, so the same simulation cell sends
// the same traffic under every budget — the axis varies only which cells
// abort with a bandwidth violation.
func BandwidthAxis(bits ...int) Axis {
	vals := make([]axisValue, len(bits))
	for i, b := range bits {
		vals[i] = axisValue{part: fmt.Sprintf("bw=%d", b), set: func(c *cellSpec) { c.bandwidth = b }}
	}
	return Axis{name: "bandwidth", kind: axisBandwidth, values: vals}
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

// VaryFunc declares a user-defined axis: for each value, apply is invoked
// with the cell's assembled Scenario and the value, after the built-in
// options are set — mutate the scenario by invoking ScenarioOptions on it,
// e.g.
//
//	VaryFunc("maxrounds", []string{"4", "8"}, func(s *Scenario, v string) {
//	    n, _ := strconv.Atoi(v)
//	    WithMaxRounds(n)(s)
//	})
//
// Each value contributes a canonical seed-relevant "name=value" label
// fragment, exactly like the built-in simulation axes.
func VaryFunc(name string, values []string, apply func(s *Scenario, value string)) Axis {
	vals := make([]axisValue, len(values))
	for i, v := range values {
		vals[i] = axisValue{part: name + "=" + v, seed: true, set: func(c *cellSpec) {
			// Copy-on-append: sibling branches of the expansion share the
			// prefix slice and must never alias one growing backing array.
			c.custom = append(append([]customSetting(nil), c.custom...), customSetting{apply: apply, value: v})
		}}
	}
	return Axis{name: name, kind: axisCustom, values: vals}
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
	// MaxRounds bounds each run (0 = engine default).
	MaxRounds int
	// Workers is the number of concurrent cell runners for Stream/Run
	// (0 = GOMAXPROCS). Each worker owns one reusable congest.RunContext.
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
	// computed error-free records are inserted. Cells whose behavior the
	// content address cannot identify — per-cell Observers, VaryFunc custom
	// axes — always run. One cache may back any
	// number of concurrent Plans; see NewResultCache / OpenResultCache.
	Cache *ResultCache
}

// planCell is one expanded plan point. A nil scenario marks a cell resolved
// from the cache at expansion: its record is already final and the workers
// just deliver it. cacheKey is non-empty when the freshly computed record
// should be inserted after the run.
type planCell struct {
	rec      Record
	scenario *Scenario
	trace    *TraceObserver // non-nil when the plan captures traces
	cache    *ResultCache
	cacheKey string
}

// topoCache shares one built graph (and its lazily-computed default
// workload length) across every cell of the same (topology, n, k).
type topoCache struct {
	g         *Graph
	defRounds int
}

func (tc *topoCache) defaultRounds() int {
	if tc.defRounds == 0 {
		tc.defRounds = tc.g.Diameter() + 1
	}
	return tc.defRounds
}

// cells expands the plan's cross product, validating every registry name up
// front and building each distinct topology once.
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
		// Duplicate built-in axes would stack label fragments for one
		// dimension ("n=16,n=32") while only the innermost value applies;
		// custom axes may reuse names freely (kinds, not display names,
		// decide — a VaryFunc axis called "p" is its own dimension).
		if ax.kind != axisCustom {
			if seen[ax.kind] {
				return nil, fmt.Errorf("mobilecongest: duplicate %s axis", ax.name)
			}
			seen[ax.kind] = true
		}
	}
	// A p axis without a protocol axis would perturb every cell's seed while
	// changing nothing about the run — a fabricated effect. Fail loudly.
	// (Plans that set the protocol through VaryFunc should vary its
	// parameter the same way.)
	if seen[axisProtocolParam] && !seen[axisProtocol] {
		return nil, fmt.Errorf("mobilecongest: ProtocolParamAxis requires a ProtocolAxis (the parameter only reaches registry protocols)")
	}

	graphs := map[string]*topoCache{}
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
		// Only cells whose behavior the content address fully identifies are
		// eligible: per-cell Observers watch rounds a replay never executes,
		// and VaryFunc closures are code the label cannot name. The cell name carries every axis fragment plus the rep;
		// MaxRounds and trace capture shape the record without appearing in
		// it, so they extend the key, and the engine (absent from default
		// cells' names) is its own key component.
		var cacheKey string
		if p.Cache != nil && p.Observers == nil && len(spec.custom) == 0 {
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

		key := fmt.Sprintf("%s/%d/%d", spec.topoName, spec.topoN, spec.topoK)
		tc := graphs[key]
		if tc == nil {
			g, err := BuildTopology(spec.topoName, spec.topoN, spec.topoK)
			if err != nil {
				return err
			}
			tc = &topoCache{g: g}
			graphs[key] = tc
		}

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
			WithGraph(tc.g),
		}
		if spec.protoName != "" {
			opts = append(opts, WithProtocolName(spec.protoName), WithProtocolParam(spec.protoP))
		} else {
			opts = append(opts, WithProtocol(algorithms.FloodMax(tc.defaultRounds())))
		}
		opts = append(opts,
			WithAdversaryName(spec.advName, spec.advF),
			WithEngineName(spec.engName),
			WithBandwidth(spec.bandwidth),
			WithSeed(seed),
			WithMaxRounds(p.MaxRounds),
			WithObserver(obs...),
		)
		s := NewScenario(opts...)
		for _, cs := range spec.custom {
			cs.apply(s, cs.value)
		}
		cells = append(cells, planCell{
			rec: Record{
				Name:      name,
				Topology:  spec.topoName,
				N:         spec.topoN,
				K:         spec.topoK,
				Protocol:  s.protoName, // after custom applies: VaryFunc may retarget it
				P:         s.protoP,
				Adversary: spec.advName,
				F:         spec.advF,
				Engine:    spec.engName,
				Bandwidth: spec.bandwidth,
				Rep:       spec.rep,
				Seed:      seed,
			},
			scenario: s,
			trace:    tr,
			cache:    p.Cache,
			cacheKey: cacheKey,
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

// runPlanCell executes one cell inside the worker's reusable run context and
// folds the outcome into its record; failures are recorded, never fatal.
// Cells resolved from the cache at expansion (nil scenario) are already
// final — their record keeps the elapsed time of the run that filled the
// cache, so a warm replay is byte-identical to the cold sweep it mirrors.
func runPlanCell(c *planCell, rc *congest.RunContext) {
	if c.scenario == nil {
		return
	}
	start := time.Now()
	res, err := c.scenario.runIn(rc)
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
// returns with every worker goroutine exited.
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
			// One reusable run context per worker: consecutive cells on the
			// same topology share the run's layout, buffers, and RNG
			// allocations instead of rebuilding them per cell. Shard-engine
			// cells divide the machine across the P workers instead of each
			// grabbing GOMAXPROCS shards (an explicit ShardEngine.Shards
			// still overrides); Close releases any parked shard pool when
			// the worker retires.
			rc := congest.NewRunContext()
			defer rc.Close()
			rc.LimitShards(max(1, runtime.GOMAXPROCS(0)/workers))
			for i := range jobs {
				runPlanCell(&cells[i], rc)
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
