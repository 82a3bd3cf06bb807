package mobilecongest

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
)

// Plan is an experiment: the cross product of its spec's value lists, one
// simulation per cell, run with deterministic per-cell seeds and either
// streamed as cells finish (Stream) or collected in cell order (Run). The
// spec is the Plan's only description of its cells (see PlanSpec for the
// defaults, the cell order and the labels); Observers and Cache are how the
// cells run, not which cells there are. The zero Plan is one default cell.
//
// Workers, BaseSeed and MaxRounds are the spec's. A worker runs consecutive
// cells on one graph in one congest.RunContext, which keeps the last
// built-in adversary those cells built by name: a later cell restarts it
// from its own seed, a Register call on the adversary registry retires it,
// and a user-registered adversary is built for every cell. Between graphs
// it closes that context, parks it in a pool every Plan of the process
// shares and takes one bound to the next graph, when one is parked. A
// parked context keeps no node scratch and no node RNGs, so the pool's cap
// on layout slots (directed edges) bounds its bytes: about 185 bytes a slot
// for floodmax and 390–920 for the compilers.
type Plan struct {
	PlanSpec
	// Observers, when non-nil, builds extra per-cell observers; it is
	// called once per cell with the cell's Record.Name. Cells run
	// concurrently, so anything the returned observers share (e.g. a
	// writer) must tolerate that — see NewJSONLTrace.
	Observers func(cellName string) []Observer
	// Cache, when non-nil, memoizes cell records content-addressed by the
	// cell's canonical name (plus MaxRounds), derived seed, engine, and the
	// build's code version. Cached cells are resolved at expansion — no
	// graph, Scenario, or RunContext is touched — and yielded through the
	// normal worker pipeline, preserving Run's deterministic order and
	// Stream's cancellation semantics; freshly computed error-free records
	// are inserted. The key names a topology, protocol and adversary by
	// name only, so only cells whose three registrations are built-in ones
	// that no Register* call has replaced use the cache (the default
	// workload counts as built-in); other cells always run. So do all cells
	// of Plans with per-cell Observers: the observers watch rounds a replay
	// never executes. One cache may back any number of concurrent Plans;
	// see NewResultCache / OpenResultCache.
	Cache *ResultCache
}

// planCell is one expanded plan point. A nil g marks a cell resolved from
// the cache at expansion: its record is already final and the workers just
// deliver it. Otherwise the record holds the cell's coordinates, g is the
// graph the cell runs on and pool its key in the run-context pool; cacheKey
// is non-empty when the freshly computed record should be inserted after
// the run.
type planCell struct {
	rec       Record
	engine    Engine
	obs       []Observer
	maxRounds int
	cache     *ResultCache
	cacheKey  string
	g         *Graph
	pool      graphKey
}

// cells validates the spec and expands it in cell order, taking each
// distinct topology from the run-context pool or building it, once.
func (p Plan) cells() ([]planCell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	topos := defaulted(p.Topologies, "clique")
	ns := defaulted(p.Ns, 16)
	ks := defaulted(p.Ks, 0)
	protos := defaulted(p.Protocols, "") // "" is the default workload
	ps := defaulted(p.Ps, 0)
	advs := defaulted(p.Adversaries, "none")
	fs := defaulted(p.Fs, 1)
	engines := defaulted(p.Engines, EngineStep.Name())
	engs := make([]Engine, len(engines))
	for i, name := range engines {
		var err error
		if engs[i], err = NewEngine(name); err != nil {
			return nil, err
		}
	}
	bws := defaulted(p.Bandwidths, 0)
	dims := [...]int{len(topos), len(ns), len(ks), len(protos), len(ps), len(advs), len(fs), len(engines), len(bws), max(p.Reps, 1)}

	// The generation is read before any build, so a graph built while a
	// RegisterTopology runs is stamped stale, never current.
	gen := topologies.Generation()
	graphs := map[graphKey]*Graph{}
	cells := make([]planCell, 0, min(p.Cells(), 1<<12))
	label := make([]byte, 0, 128)
	// at walks the cross product like an odometer, reps fastest.
	var at [len(dims)]int
	for {
		topo, n, k := topos[at[0]], ns[at[1]], ks[at[2]]
		proto, pp := protos[at[3]], ps[at[4]]
		adv, f := advs[at[5]], fs[at[6]]
		eng, bw, rep := engines[at[7]], bws[at[8]], at[9]

		// The label rules are PlanSpec's: an omitted protocols, ps or
		// bandwidths list adds no fragment, and the seed hashes the label
		// up to f, leaving out the engine and the budget.
		label = append(label[:0], "topo="...)
		label = append(label, topo...)
		label = appendInt(label, ",n=", n)
		label = appendInt(label, ",k=", k)
		if len(p.Protocols) > 0 {
			label = append(append(label, ",proto="...), proto...)
		}
		if len(p.Ps) > 0 {
			label = appendInt(label, ",p=", pp)
		}
		label = append(append(label, ",adv="...), adv...)
		label = appendInt(label, ",f=", f)
		simLen := len(label)
		label = append(append(label, ",engine="...), eng...)
		if len(p.Bandwidths) > 0 {
			label = appendInt(label, ",bw=", bw)
		}
		label = appendInt(label, ",rep=", rep)
		name := string(label)
		seed := CellSeed(p.BaseSeed, name[:simLen], rep)
		rec := Record{
			Name: name, Topology: topo, N: n, K: k, Protocol: proto, P: pp,
			Adversary: adv, F: f, Engine: eng, Bandwidth: bw, Rep: rep, Seed: seed,
		}
		c, err := p.cell(rec, engs[at[7]], gen, graphs)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)

		d := len(dims) - 1
		for ; d >= 0; d-- {
			if at[d]++; at[d] < dims[d] {
				break
			}
			at[d] = 0
		}
		if d < 0 {
			return cells, nil
		}
	}
}

// defaulted returns s, or the single default def when s is empty.
func defaulted[T any](s []T, def T) []T {
	if len(s) == 0 {
		return []T{def}
	}
	return s
}

// appendInt appends key and v in decimal.
func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// cell resolves one cell with coordinates rec, to run on eng: from the cache
// when it holds the record, otherwise with its graph, taken from graphs,
// the run-context pool or a fresh build.
func (p Plan) cell(rec Record, eng Engine, gen uint64, graphs map[graphKey]*Graph) (planCell, error) {
	// Cache consult comes first: a hit resolves the cell from its record
	// alone — no topology build, no Scenario, and later no RunContext.
	// Per-cell Observers watch rounds a replay never executes, so their
	// plans bypass the cache, as do cells with a registration the name does
	// not pin (cacheable). The cell name carries every label fragment plus
	// the rep; MaxRounds shapes the record without appearing in it, so it
	// extends the key, and the engine is its own key component.
	var cacheKey string
	if p.Cache != nil && p.Observers == nil && cacheable(rec.Topology, rec.Protocol, rec.Adversary) {
		cacheKey = rec.Name
		if p.MaxRounds != 0 {
			cacheKey = fmt.Sprintf("%s,maxrounds=%d", cacheKey, p.MaxRounds)
		}
		if hit, ok := p.Cache.get(cacheKey, rec.Seed, rec.Engine); ok {
			return planCell{rec: hit}, nil
		}
	}

	key := graphKey{topo: rec.Topology, n: rec.N, k: rec.K, gen: gen}
	g := graphs[key]
	if g == nil {
		g = runContexts.graph(key)
	}
	if g == nil {
		var err error
		if g, err = BuildTopology(rec.Topology, rec.N, rec.K); err != nil {
			return planCell{}, err
		}
	}
	graphs[key] = g
	// Observers are per-run state, so every cell gets its own instances.
	var obs []Observer
	if p.Observers != nil {
		obs = p.Observers(rec.Name)
	}
	return planCell{
		rec:       rec,
		engine:    eng,
		obs:       obs,
		maxRounds: p.MaxRounds,
		cache:     p.Cache,
		cacheKey:  cacheKey,
		g:         g,
		pool:      key,
	}, nil
}

// planWorker is one runCells worker's hold on a run context and the
// adversary it keeps: warm, bound (or about to be bound) to g, the graph
// of the worker's last cell.
type planWorker struct {
	warm   warmContext
	g      *Graph
	pool   graphKey // warm's key in the run-context pool
	shards int      // the LimitShards cap of the worker's contexts
}

// context returns the context to run c in. Consecutive cells on one graph
// share one context. On a new graph the worker takes the pooled context
// bound to it, or a new one, hands it the goroutines the old context kept
// between runs, and parks the old one.
func (w *planWorker) context(c *planCell) *warmContext {
	if w.warm.rc != nil && c.g == w.g {
		return &w.warm
	}
	next := runContexts.take(c.pool, c.g)
	if next.rc == nil {
		next.rc = congest.NewRunContext()
	}
	next.rc.LimitShards(w.shards)
	if w.warm.rc != nil {
		w.warm.rc.HandOff(next.rc)
		w.release()
	}
	w.warm, w.g, w.pool = next, c.g, c.pool
	return &w.warm
}

// release parks the worker's context in the pool, with the adversary it
// keeps; the pool keeps no goroutine the worker started.
func (w *planWorker) release() {
	if w.warm.rc != nil {
		runContexts.park(w.pool, w.g, w.warm)
		w.warm = warmContext{}
	}
}

// cacheable reports whether a cell's record is pinned by its name: its
// topology, protocol (empty for the default workload) and adversary are
// built-in registrations nobody has replaced. A worker asks again before
// it inserts the record, so a replacement made while the cell ran keeps
// the record out of the cache.
func cacheable(topo, proto, adv string) bool {
	return topologies.BuiltIn(topo) && (proto == "" || protocols.BuiltIn(proto)) && adversaries.BuiltIn(adv)
}

// run executes one cell and folds the outcome into its record; failures are
// recorded, never fatal. Cells resolved from the cache at expansion (nil
// graph) are already final — their record keeps the elapsed time of the
// run that filled the cache, so a warm replay is byte-identical to the cold
// sweep it mirrors.
func (w *planWorker) run(c *planCell) {
	if c.g == nil {
		return
	}
	s := Scenario{
		name:      cellKey(c.rec.Name),
		g:         c.g,
		protoName: c.rec.Protocol,
		protoP:    c.rec.P,
		advName:   c.rec.Adversary,
		advF:      c.rec.F,
		engine:    c.engine,
		seed:      c.rec.Seed,
		maxRounds: c.maxRounds,
		bandwidth: c.rec.Bandwidth,
		observers: c.obs,
	}
	if s.protoName == "" {
		s.proto = algorithms.FloodMax(c.g.Diameter() + 1)
	}
	warm := w.context(c)
	start := time.Now()
	res, err := s.runIn(warm)
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
	if c.cache != nil && c.cacheKey != "" && cacheable(c.rec.Topology, c.rec.Protocol, c.rec.Adversary) {
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
			// run's layout, buffers, RNGs and named adversaries are reused
			// instead of rebuilt (node scratch only within a worker's run
			// of cells on one graph). Shard-engine cells
			// divide the machine across the P workers instead of each
			// grabbing GOMAXPROCS shards (an explicit ShardEngine.Shards
			// still overrides).
			// Retiring parks the worker's context, which closes it: its
			// shard pool, node coroutines and run memo go.
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
// (an invalid spec, an unbuildable topology) is yielded as the only
// element.
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

// Run executes the plan and returns every cell's record in cell order (see
// PlanSpec), regardless of worker count or scheduling. Per-cell failures are recorded, not fatal; the error
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
