package mobilecongest

import (
	"fmt"
	"math/rand"
	"sync"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/registry"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/secure"
)

// The name-keyed protocol registry, symmetric to the topology and adversary
// registries: it makes the protocol axis expressible by string, so scenarios,
// experiment plans, and the mobilesim CLI can name a workload without writing
// Go. Built-in entries cover the fault-free payload fleet plus two compiled
// protocols — the registry's ProtocolFunc returns the trusted preprocessing
// artifact alongside the protocol, which is exactly what makes the paper's
// compilers registrable.

// ProtoParams parameterizes a registered protocol build. Every field has a
// usable zero value, so ProtoParams{} asks each family for its defaults.
type ProtoParams struct {
	// Rounds is the protocol's schedule parameter — rounds, radius, or
	// iterations, family-dependent (see the table in the README). 0 derives
	// the family default from the graph (usually diameter+1).
	Rounds int
	// Root is the distinguished node of the rooted protocols (broadcast,
	// bfs, sumtoroot, secure-broadcast, hardened-clique); the zero value
	// roots at node 0.
	Root NodeID
	// Seed drives the deterministic generation of protocol inputs and
	// values (mstclique edge weights, broadcast payloads, sumtoroot
	// inputs). Scenario passes its own seed (decorrelated by a fixed mix),
	// so a sweep's reps vary the generated inputs along with everything
	// else.
	Seed int64
	// F is the adversary strength the compiled entries (secure-broadcast,
	// hardened-clique) defend against; values below 1 are treated as 1.
	// Scenario passes the f of WithAdversaryName.
	F int
}

func (p ProtoParams) withDefaults() ProtoParams {
	if p.F < 1 {
		p.F = 1
	}
	return p
}

// ProtocolFunc builds a named protocol over g. The second return value is
// the protocol's trusted preprocessing artifact, distributed to all nodes
// as the run's Shared artifact (nil for protocols that need none) — returning it
// here is what lets compiled protocols live in the registry next to their
// payloads.
type ProtocolFunc func(g *Graph, p ProtoParams) (Protocol, any, error)

var protocols = registry.New[ProtocolFunc]("mobilecongest", "protocol")

// RegisterProtocol adds (or replaces) a named protocol family.
func RegisterProtocol(name string, fn ProtocolFunc) { protocols.Register(name, fn) }

// HasProtocol reports whether a protocol family is registered under name.
func HasProtocol(name string) bool { return protocols.Has(name) }

// BuildProtocol instantiates a registered protocol over g, returning the
// protocol and its trusted preprocessing artifact (nil if it needs none).
func BuildProtocol(name string, g *Graph, p ProtoParams) (Protocol, any, error) {
	fn, err := protocols.Get(name)
	if err != nil {
		return nil, nil, err
	}
	p = p.withDefaults()
	if p.Root < 0 || int(p.Root) >= g.N() {
		return nil, nil, fmt.Errorf("mobilecongest: protocol %s: root %d out of range [0, %d)", name, p.Root, g.N())
	}
	proto, shared, err := fn(g, p)
	if err != nil {
		return nil, nil, fmt.Errorf("mobilecongest: protocol %s: %w", name, err)
	}
	return proto, shared, nil
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string { return protocols.Names() }

// protoRounds resolves the family-default schedule length: the requested
// value if positive, else diameter+1 — enough rounds for any flood to cover
// the graph. A disconnected graph has no flood schedule; erroring here beats
// the zero-round "success" the -1 sentinel would silently produce.
func protoRounds(g *Graph, r int) (int, error) {
	if r > 0 {
		return r, nil
	}
	d := g.Diameter()
	if d < 0 {
		return 0, fmt.Errorf("graph is disconnected; no default round count (set a parameter explicitly)")
	}
	return d + 1, nil
}

// protoEcc is protoRounds' rooted twin: the requested value if positive,
// else the root's eccentricity, erroring on disconnected graphs.
func protoEcc(g *Graph, r int, root NodeID) (int, error) {
	if r > 0 {
		return r, nil
	}
	e := g.Eccentricity(root)
	if e < 0 {
		return 0, fmt.Errorf("graph is disconnected; no default round count (set a parameter explicitly)")
	}
	return e, nil
}

// protoValue derives the canonical nonzero payload value of a seed (the
// broadcast protocols reserve 0 as "none"): the first draw of
// rand.New(rand.NewSource(seed)).Int63n(1_000_000), plus one. It re-seeds
// one shared generator instead of allocating that 5 KB source on every
// protocol build.
func protoValue(seed int64) uint64 {
	protoRand.mu.Lock()
	defer protoRand.mu.Unlock()
	protoRand.r.Seed(seed)
	return 1 + uint64(protoRand.r.Int63n(1_000_000))
}

// protoRand is the generator protoValue re-seeds on every call.
var protoRand = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(0))}

func isClique(g *Graph) bool {
	for u := 0; u < g.N(); u++ {
		if g.Degree(NodeID(u)) != g.N()-1 {
			return false
		}
	}
	return true
}

func isRing(g *Graph) bool {
	if g.N() < 3 || !g.IsConnected() {
		return false
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(NodeID(u)) != 2 {
			return false
		}
	}
	return true
}

// protoInputs runs proto with every node's Input() overridden by the
// registry-generated canonical inputs, leaving the run Config untouched: a
// named protocol's inputs are part of the protocol, derived from
// ProtoParams.Seed, so WithInputs does not reach registry protocols that
// generate their own. The wrapper is transparent on the wire — exchanges
// pass straight through to the underlying port runtime — so traces and
// stats are identical to running the inner protocol with Config.Inputs.
// Each node's wrapper and its outbox are kept in node scratch across the
// runs of a context; registry protocols never nest, so a node has one
// protoInputs wrapper at a time.
func protoInputs(proto Protocol, inputs [][]byte) Protocol {
	return func(rt Runtime) {
		s := inputNodes.Of(rt)
		if s.w.ExchangePortsFn == nil {
			s.w.ExchangePortsFn, s.w.InputFn = s.exchange, s.input
		}
		s.w.Rebind(rt)
		s.inputs = inputs
		proto(&s.w)
	}
}

// inputNode is one node's protoInputs wrapper.
type inputNode struct {
	w      congest.WrappedRuntime
	inputs [][]byte
}

var inputNodes = congest.NewNodeScratch[inputNode]()

func (s *inputNode) exchange(out []Msg) []Msg { return s.w.Base.ExchangePorts(out) }

func (s *inputNode) input() []byte { return s.inputs[s.w.Base.ID()] }

func init() {
	protocols.RegisterBuiltIn("floodmax", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		r, err := protoRounds(g, p.Rounds)
		if err != nil {
			return nil, nil, err
		}
		return algorithms.FloodMax(r), nil, nil
	})
	protocols.RegisterBuiltIn("broadcast", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		r, err := protoRounds(g, p.Rounds)
		if err != nil {
			return nil, nil, err
		}
		return algorithms.Broadcast(p.Root, protoValue(p.Seed), r), nil, nil
	})
	protocols.RegisterBuiltIn("bfs", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		r, err := protoEcc(g, p.Rounds, p.Root)
		if err != nil {
			return nil, nil, err
		}
		return algorithms.BFS(p.Root, r), nil, nil
	})
	protocols.RegisterBuiltIn("sumtoroot", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		radius, err := protoEcc(g, p.Rounds, p.Root)
		if err != nil {
			return nil, nil, err
		}
		if radius < 1 {
			radius = 1
		}
		inputs, _ := algorithms.SumInputs(g.N(), p.Seed)
		return protoInputs(algorithms.SumToRoot(p.Root, radius), inputs), nil, nil
	})
	protocols.RegisterBuiltIn("tokenring", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		for u := 0; u < g.N(); u++ {
			if g.Degree(NodeID(u)) == 0 {
				return nil, nil, fmt.Errorf("tokenring needs minimum degree 1; node %d is isolated", u)
			}
		}
		r := p.Rounds
		if r <= 0 {
			r = g.N()
		}
		return algorithms.TokenRing(r), nil, nil
	})
	protocols.RegisterBuiltIn("colorring", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		if !isRing(g) {
			return nil, nil, fmt.Errorf("colorring needs a cycle topology (n >= 3, all degrees 2, connected)")
		}
		it := p.Rounds
		if it <= 0 {
			it = algorithms.ColorRingIterations(g.N())
		}
		return algorithms.ColorRing(it), nil, nil
	})
	protocols.RegisterBuiltIn("mstclique", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		if !isClique(g) {
			return nil, nil, fmt.Errorf("mstclique runs in the congested clique; topology is not a clique")
		}
		return protoInputs(algorithms.MSTClique(), algorithms.CliqueWeights(g.N(), p.Seed)), nil, nil
	})
	// Compiled entries: the registry's shared-artifact return is what makes
	// these expressible. secure-broadcast is the Theorem 1.2 static-to-mobile
	// compiler over an input-driven broadcast; hardened-clique is the
	// Theorem 1.6 congested-clique byzantine compiler over a broadcast
	// payload, with its star-packing artifact.
	protocols.RegisterBuiltIn("secure-broadcast", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		r, err := protoRounds(g, p.Rounds)
		if err != nil {
			return nil, nil, err
		}
		t := secure.SlackFor(r, p.F) // keeps f' = p.F per Theorem 1.2
		inputs := make([][]byte, g.N())
		inputs[p.Root] = congest.PutU64(nil, protoValue(p.Seed))
		proto := secure.StaticToMobile(algorithms.BroadcastInput(p.Root, r), r, t)
		return protoInputs(proto, inputs), nil, nil
	})
	protocols.RegisterBuiltIn("hardened-clique", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		if !isClique(g) {
			return nil, nil, fmt.Errorf("hardened-clique runs in the congested clique; topology is not a clique")
		}
		r := p.Rounds
		if r <= 0 {
			r = 2 // diameter+1 on a clique
		}
		proto, sh := resilient.HardenedClique(algorithms.Broadcast(p.Root, protoValue(p.Seed), r), g.N(), p.F)
		return proto, sh, nil
	})
}
