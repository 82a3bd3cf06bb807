package mobilecongest

import (
	"errors"
	"fmt"

	"mobilecongest/internal/congest"
)

// Engine is the execution engine; see congest.Engine.
type Engine = congest.Engine

// The two built-in engines, both the one congest.ShardEngine. EngineShard
// steps every node as a coroutine over contiguous CSR node shards in
// parallel (GOMAXPROCS shards by default; see NewShardEngine for the knob) —
// the engine for large graphs on multi-core hosts. EngineStep, the default
// for scenarios, is its single-shard form: every node resumed on the calling
// goroutine. Both produce identical Results, which the cross-engine
// equivalence tests check against a test-only reference simulator.
var (
	EngineStep  Engine = congest.ShardEngine{Shards: 1}
	EngineShard Engine = congest.ShardEngine{}
)

// NewEngine resolves an engine by registry name ("step", "shard"). An empty
// name is an error; leave the engine unset on a Scenario to get the
// step-engine default.
func NewEngine(name string) (Engine, error) { return congest.Engines.Get(name) }

// NewShardEngine returns a shard engine with a fixed shard (worker) count;
// shards <= 0 keeps the automatic default (GOMAXPROCS, divided down by
// Plan.Stream across its workers), and 1 is EngineStep. Use WithEngine to
// install it on a scenario.
func NewShardEngine(shards int) Engine { return congest.ShardEngine{Shards: shards} }

// EngineNames lists the registered engine names.
func EngineNames() []string { return congest.Engines.Names() }

// advSeedMix decorrelates registry-built adversary randomness from the node
// randomness derived from the same scenario seed.
const advSeedMix = 0x6d6f62696c65 // "mobile"

// protoSeedMix likewise decorrelates registry-built protocol inputs (edge
// weights, payload values) from both the node and the adversary randomness.
const protoSeedMix = 0x70726f746f // "proto"

// Scenario is one fully-described simulation: topology, protocol, adversary,
// engine, and run parameters. Build it with NewScenario and functional
// options; zero-value defaults are fault-free, seed 0, the step engine, and
// the engine's generous round limit.
//
// A Scenario is the single entry point for running simulations — it replaces
// hand-rolled congest.Config literals — and is the unit a Plan fans out.
// Repeated Run calls on one Scenario reuse a congest.RunContext, amortizing
// the per-run state (edge layout, round buffers, node cores, RNGs, and the
// node coroutines, which stay parked until the Scenario is garbage
// collected), and a built-in adversary named with WithAdversaryName, across
// runs; a Scenario is therefore not safe for concurrent Run calls (it never
// was — the topology cache already mutated the value). To fan one scenario
// out across goroutines, give each its own Clone.
type Scenario struct {
	name      string
	g         *Graph
	topoName  string
	topoN     int
	topoK     int
	proto     Protocol
	protoName string
	protoP    int
	adv       Adversary
	advName   string
	advF      int
	engine    Engine
	seed      int64
	maxRounds int
	bandwidth int
	shared    any
	inputs    [][]byte
	observers []Observer
	warm      warmContext // reused across repeated Run calls
	err       error       // first configuration error, surfaced at Run
}

// ScenarioOption configures a Scenario.
type ScenarioOption func(*Scenario)

// NewScenario assembles a scenario from options. Configuration errors
// (unknown registry names, missing graph or protocol) are deferred and
// returned by Run, so call sites stay a single expression. Options that
// configure the same thing two ways — WithGraph vs WithTopology, WithAdversary
// vs WithAdversaryName — are last-one-wins.
func NewScenario(opts ...ScenarioOption) *Scenario {
	s := &Scenario{}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

func (s *Scenario) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithName labels the scenario (sweep records and error messages).
func WithName(name string) ScenarioOption {
	return func(s *Scenario) { s.name = name }
}

// WithGraph sets the communication topology directly, displacing any earlier
// WithTopology.
func WithGraph(g *Graph) ScenarioOption {
	return func(s *Scenario) { s.g = g; s.topoName = "" }
}

// WithTopology sets the topology by registry name, displacing any earlier
// WithGraph; k is the family's secondary parameter (0 for the family
// default).
func WithTopology(name string, n, k int) ScenarioOption {
	return func(s *Scenario) {
		s.topoName, s.topoN, s.topoK = name, n, k
		s.g = nil
	}
}

// WithProtocol sets the per-node protocol directly, displacing any earlier
// WithProtocolName.
func WithProtocol(p Protocol) ScenarioOption {
	return func(s *Scenario) { s.proto = p; s.protoName = "" }
}

// WithProtocolName sets the protocol by registry name, displacing any
// earlier WithProtocol. The protocol is built at Run time against the
// resolved graph with ProtoParams derived canonically from the scenario:
// Seed is the scenario seed (decorrelated by a fixed mix), F is the f of
// WithAdversaryName (1 otherwise), Rounds is WithProtocolParam's value, and
// Root is node 0. A shared artifact returned by the registry entry (the
// compiled protocols) is installed unless WithShared set one explicitly.
// Registry protocols that need per-node inputs (mstclique, sumtoroot,
// secure-broadcast) generate their own canonical inputs from the seed;
// WithInputs does not reach them.
func WithProtocolName(name string) ScenarioOption {
	return func(s *Scenario) { s.protoName = name; s.proto = nil }
}

// WithProtocolParam sets the registered protocol's schedule parameter
// (rounds, radius, or iterations — family-dependent; 0 keeps the family
// default). It only affects protocols configured with WithProtocolName.
func WithProtocolParam(p int) ScenarioOption {
	return func(s *Scenario) { s.protoP = p }
}

// WithAdversary sets the adversary instance; nil means fault-free.
func WithAdversary(a Adversary) ScenarioOption {
	return func(s *Scenario) { s.adv = a; s.advName = "" }
}

// WithAdversaryName sets the adversary by registry name with per-round edge
// strength f. The instance is built at Run time against the resolved graph,
// seeded deterministically from the scenario seed. The run context keeps a
// built-in seeded adversary for its later runs on the same graph, name and
// f, a Plan cell's as well as the Scenario's own: restarted from the run's
// seed (Reseed), it draws exactly as a new one. Any Register call on the
// adversary registry retires the kept instance, so the next run builds
// under the registration in force; adversaries registered with
// RegisterAdversary are built for every run.
func WithAdversaryName(name string, f int) ScenarioOption {
	return func(s *Scenario) { s.advName, s.advF = name, f; s.adv = nil }
}

// WithEngine selects the execution engine.
func WithEngine(e Engine) ScenarioOption {
	return func(s *Scenario) { s.engine = e }
}

// WithEngineName selects the execution engine by registry name.
func WithEngineName(name string) ScenarioOption {
	return func(s *Scenario) {
		e, err := NewEngine(name)
		if err != nil {
			s.fail(err)
			return
		}
		s.engine = e
	}
}

// WithSeed sets the master seed; runs are deterministic given it.
func WithSeed(seed int64) ScenarioOption {
	return func(s *Scenario) { s.seed = seed }
}

// WithShared distributes a trusted preprocessing artifact to all nodes.
func WithShared(shared any) ScenarioOption {
	return func(s *Scenario) { s.shared = shared }
}

// WithMaxRounds bounds the run (0 keeps the engine default).
func WithMaxRounds(r int) ScenarioOption {
	return func(s *Scenario) { s.maxRounds = r }
}

// WithBandwidth enforces the CONGEST per-edge-per-round budget: a node
// sending a message larger than bits bits over one edge in one round aborts
// the run with a deterministic smallest-offender error wrapping
// congest.ErrBandwidthExceeded, identical across engines. The budget binds
// the protocol only — adversary corruptions are not size-checked. 0 (the
// default) leaves message sizes unrestricted. For the paper's B = O(log n)
// model, pass e.g. 2*bits.Len(uint(n)) worth of budget explicitly.
func WithBandwidth(bits int) ScenarioOption {
	return func(s *Scenario) { s.bandwidth = bits }
}

// WithInputs sets per-node protocol inputs (nil or length N).
func WithInputs(inputs [][]byte) ScenarioOption {
	return func(s *Scenario) { s.inputs = inputs }
}

// WithObserver attaches observers to the run; they receive the round
// lifecycle events of the Observer pipeline (RoundStart, RoundDelivered,
// RunDone). Repeated options accumulate. Observers are per-run state: build
// fresh ones for every scenario rather than sharing them across runs.
func WithObserver(obs ...Observer) ScenarioOption {
	return func(s *Scenario) { s.observers = append(s.observers, obs...) }
}

// Name returns the scenario's label ("" if unnamed).
func (s *Scenario) Name() string { return s.name }

// Graph resolves and returns the scenario's topology (building and caching it
// from the registry if configured by name).
func (s *Scenario) Graph() (*Graph, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.g == nil {
		if s.topoName == "" {
			return nil, errors.New("mobilecongest: scenario has no graph (use WithGraph or WithTopology)")
		}
		g, err := BuildTopology(s.topoName, s.topoN, s.topoK)
		if err != nil {
			return nil, err
		}
		s.g = g
	}
	return s.g, nil
}

// Seed returns the scenario's master seed.
func (s *Scenario) Seed() int64 { return s.seed }

// Engine returns the scenario's engine (the step engine if unset).
func (s *Scenario) Engine() Engine {
	if s.engine == nil {
		return EngineStep
	}
	return s.engine
}

// Clone returns an independent copy of the scenario for concurrent use: the
// clone shares the immutable configuration (graph, options, inputs) but gets
// its own RunContext, so parallel goroutines can each Run their own clone of
// one scenario — the concurrent-reuse pattern a single Scenario value cannot
// support (see the type doc). Per-run state configured by *instance* rather
// than by name is still shared: a WithAdversary instance and WithObserver
// observers are not cloned, so scenarios meant for fan-out should configure
// the adversary with WithAdversaryName (built and kept by each clone's own
// run context, never shared) and attach observers per clone. If the
// topology was configured by name and not yet resolved, each clone builds
// its own (identical) graph; call Graph() once before cloning to share one
// instance.
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.warm = warmContext{}
	// Snapshot the observer list so a later WithObserver-style append on one
	// copy can never alias the other's backing array.
	c.observers = append([]Observer(nil), s.observers...)
	return &c
}

// Run resolves the scenario and executes it.
func (s *Scenario) Run() (*Result, error) {
	if s.warm.rc == nil {
		s.warm.rc = congest.NewRunContext()
	}
	return s.runIn(&s.warm)
}

// runIn executes the scenario inside the given run context, which a caller
// making many runs over the same graph (Plan workers, the Scenario's own
// repeated Run calls) reuses, with the adversary it keeps, to amortize
// per-run allocations.
func (s *Scenario) runIn(w *warmContext) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.proto == nil && s.protoName == "" {
		return nil, errors.New("mobilecongest: scenario has no protocol (use WithProtocol or WithProtocolName)")
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	proto, shared := s.proto, s.shared
	if proto == nil {
		f := s.advF
		if f < 1 {
			f = 1
		}
		p, sh, err := BuildProtocol(s.protoName, g, ProtoParams{
			Rounds: s.protoP,
			Seed:   s.seed ^ protoSeedMix,
			F:      f,
		})
		if err != nil {
			return nil, err
		}
		proto = p
		if shared == nil {
			shared = sh
		}
	}
	adv := s.adv
	if adv == nil && s.advName != "" {
		if adv, err = w.adversary(s.advName, g, s.advF, s.seed^advSeedMix); err != nil {
			return nil, err
		}
	}
	cfg := congest.Config{
		Graph:     g,
		Seed:      s.seed,
		MaxRounds: s.maxRounds,
		Adversary: adv,
		Inputs:    s.inputs,
		Shared:    shared,
		Bandwidth: s.bandwidth,
		Observers: s.observers,
	}
	res, runErr := s.Engine().RunIn(w.rc, cfg, proto)
	if runErr != nil && s.name != "" {
		return nil, fmt.Errorf("scenario %s: %w", s.name, runErr)
	}
	return res, runErr
}
