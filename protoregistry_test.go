package mobilecongest

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/graph"
)

func TestProtocolRegistryContents(t *testing.T) {
	want := []string{
		"floodmax", "broadcast", "bfs", "sumtoroot", "tokenring",
		"colorring", "mstclique", "secure-broadcast", "hardened-clique",
	}
	for _, name := range want {
		if !HasProtocol(name) {
			t.Fatalf("builtin protocol %s not registered", name)
		}
	}
	// Custom registrations are visible and listed.
	RegisterProtocol("test-noop", func(g *Graph, p ProtoParams) (Protocol, any, error) {
		return algorithms.FloodMax(1), nil, nil
	})
	found := false
	for _, n := range Protocols() {
		if n == "test-noop" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered protocol not listed")
	}
	g := NewClique(6)
	if _, _, err := BuildProtocol("nosuch", g, ProtoParams{}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("unknown protocol: err = %v", err)
	}
	if _, _, err := BuildProtocol("floodmax", g, ProtoParams{Root: 99}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range root: err = %v", err)
	}
	// Topology-shape requirements are enforced at build time.
	if _, _, err := BuildProtocol("mstclique", NewCirculant(10, 2), ProtoParams{}); err == nil {
		t.Fatal("mstclique accepted a non-clique topology")
	}
	if _, _, err := BuildProtocol("hardened-clique", NewCirculant(10, 2), ProtoParams{}); err == nil {
		t.Fatal("hardened-clique accepted a non-clique topology")
	}
	if _, _, err := BuildProtocol("colorring", NewClique(6), ProtoParams{}); err == nil {
		t.Fatal("colorring accepted a non-ring topology")
	}
	// Compiled entries return their trusted preprocessing artifact.
	_, sh, err := BuildProtocol("hardened-clique", g, ProtoParams{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh == nil {
		t.Fatal("hardened-clique returned no shared artifact")
	}
	// Disconnected graphs have no default schedule length: the flood and
	// rooted families must error rather than run zero rounds and look
	// successful.
	disc := graph.New(4) // no edges
	for _, name := range []string{"floodmax", "broadcast", "bfs", "sumtoroot", "secure-broadcast"} {
		if _, _, err := BuildProtocol(name, disc, ProtoParams{}); err == nil || !strings.Contains(err.Error(), "disconnected") {
			t.Fatalf("%s on a disconnected graph: err = %v", name, err)
		}
		// An explicit parameter overrides the default and is accepted.
		if _, _, err := BuildProtocol(name, disc, ProtoParams{Rounds: 2}); err != nil {
			t.Fatalf("%s with explicit rounds on a disconnected graph: %v", name, err)
		}
	}
}

// registryTopologyFor picks a topology satisfying a registry protocol's
// shape requirement: the congested-clique entries need a clique, the ring
// entries a cycle, and everything else runs on a circulant.
func registryTopologyFor(name string) (topo string, n, k int) {
	switch name {
	case "mstclique", "secure-broadcast":
		return "clique", 8, 0
	case "hardened-clique":
		return "clique", 6, 0
	case "colorring", "tokenring":
		return "cycle", 9, 0
	default:
		return "circulant", 10, 2
	}
}

// TestProtocolRegistryCrossEngine is the protocol-registry leg of the
// cross-engine equivalence contract: every registered protocol name must run
// by name on every engine with Results and traces byte-identical to the
// reference simulator's. Names registered by tests (prefix "test-") are
// skipped.
func TestProtocolRegistryCrossEngine(t *testing.T) {
	for _, name := range Protocols() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		topo, n, k := registryTopologyFor(name)
		// A weak adversary keeps the adversarial path in the loop without
		// defeating the uncompiled protocols; the compiled entries defend
		// against exactly this f.
		adv, f := "eavesdrop", 1
		run := func(engine Engine) (*Result, []byte, error) {
			tr := NewTraceObserver()
			res, err := NewScenario(
				WithTopology(topo, n, k),
				WithProtocolName(name),
				WithAdversaryName(adv, f),
				WithEngine(engine),
				WithSeed(23),
				WithObserver(tr),
			).Run()
			rounds := traceOf(engine, tr)
			if err == nil && len(rounds) != res.Stats.Rounds {
				t.Fatalf("%s: %s trace has %d rounds, stats say %d", name, engine.Name(), len(rounds), res.Stats.Rounds)
			}
			b, jerr := json.Marshal(rounds)
			if jerr != nil {
				t.Fatal(jerr)
			}
			return res, b, err
		}
		want, wtr, err1 := run(&refEngine{})
		if err1 != nil {
			t.Fatalf("%s: reference err=%v", name, err1)
		}
		wout := fmt.Sprintf("%#v", want.Outputs)
		for _, engine := range []string{"step", "shard"} {
			e, err := NewEngine(engine)
			if err != nil {
				t.Fatal(err)
			}
			got, gtr, err2 := run(e)
			if err2 != nil {
				t.Fatalf("%s: %s err=%v", name, engine, err2)
			}
			if want.Stats != got.Stats {
				t.Fatalf("%s: stats differ across engines:\n reference %+v\n %-9s %+v", name, want.Stats, engine, got.Stats)
			}
			gout := fmt.Sprintf("%#v", got.Outputs)
			if wout != gout {
				t.Fatalf("%s: outputs differ across engines:\n reference %s\n %-9s %s", name, wout, engine, gout)
			}
			if string(wtr) != string(gtr) {
				t.Fatalf("%s: traces differ between the reference and %s", name, engine)
			}
		}
	}
}

// TestProtocolRegistryEndToEnd pins the semantic contract of the registry
// entries whose outputs are independently checkable.
func TestProtocolRegistryEndToEnd(t *testing.T) {
	// sumtoroot: every node must output the global sum of the generated
	// inputs, which SumInputs reports alongside them.
	seed := int64(5)
	_, total := algorithms.SumInputs(12, (seed ^ protoSeedMix))
	res, err := NewScenario(
		WithTopology("circulant", 12, 2),
		WithProtocolName("sumtoroot"),
		WithSeed(seed),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	for u, o := range res.Outputs {
		if o.(uint64) != total {
			t.Fatalf("sumtoroot node %d output %v, want %d", u, o, total)
		}
	}
	// secure-broadcast and broadcast deliver the same seed-derived value to
	// every node; the compiled form must agree with its payload's value
	// derivation.
	for _, name := range []string{"broadcast", "secure-broadcast"} {
		res, err := NewScenario(
			WithTopology("clique", 8, 0),
			WithProtocolName(name),
			WithSeed(seed),
		).Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := protoValue(seed ^ protoSeedMix)
		for u, o := range res.Outputs {
			if o.(uint64) != want {
				t.Fatalf("%s node %d output %v, want %d", name, u, o, want)
			}
		}
	}
	// hardened-clique under exactly the byzantine strength it defends
	// against still delivers the broadcast value everywhere.
	res, err = NewScenario(
		WithTopology("clique", 8, 0),
		WithProtocolName("hardened-clique"),
		WithAdversaryName("flip", 2),
		WithSeed(seed),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CorruptedEdgeRounds == 0 {
		t.Fatal("flip adversary corrupted nothing")
	}
	want := protoValue(seed ^ protoSeedMix)
	for u, o := range res.Outputs {
		if o.(uint64) != want {
			t.Fatalf("hardened-clique node %d output %v under flip, want %d", u, o, want)
		}
	}
}

// TestProtocolNameScenarioSemantics: WithProtocolName and WithProtocol are
// last-one-wins, unknown names surface at Run, and WithShared overrides a
// registry-returned artifact.
func TestProtocolNameScenarioSemantics(t *testing.T) {
	if _, err := NewScenario(
		WithTopology("clique", 6, 0),
		WithProtocolName("nosuch"),
	).Run(); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("unknown protocol name: err = %v", err)
	}
	// Later WithProtocol displaces the name.
	res, err := NewScenario(
		WithTopology("cycle", 10, 0),
		WithProtocolName("broadcast"),
		WithProtocol(algorithms.FloodMax(5)),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(uint64) != 9 {
		t.Fatalf("WithProtocol should displace earlier WithProtocolName: out=%v", res.Outputs[0])
	}
	// Later WithProtocolName displaces the protocol instance.
	res, err = NewScenario(
		WithTopology("cycle", 10, 0),
		WithProtocol(algorithms.FloodMax(5)),
		WithProtocolName("bfs"),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Outputs[0].(algorithms.BFSResult); !ok {
		t.Fatalf("WithProtocolName should displace earlier WithProtocol: out=%T", res.Outputs[0])
	}
	// WithProtocolParam drives the family parameter (floodmax rounds).
	res, err = NewScenario(
		WithTopology("cycle", 10, 0),
		WithProtocolName("floodmax"),
		WithProtocolParam(3),
		WithSeed(1),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("WithProtocolParam(3): rounds = %d, want 3", res.Stats.Rounds)
	}
}

// TestProtoValuePinned pins the payload value each seed derives, as a fresh
// rand.New(rand.NewSource(seed)).Int63n(1_000_000) plus one gives it, and
// pins that deriving it allocates nothing: protoValue runs on every
// registry build of the broadcast protocols.
func TestProtoValuePinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{0, 165506},
		{1, 779411},
		{-1, 389677},
		{7, 43956},
		{42, 278676},
		{1 << 31, 779411},
		{math.MaxInt64, 779411},
		{math.MinInt64, 86224},
		{protoSeedMix, 107439},
		{1 ^ protoSeedMix, 473177},
		{42 ^ protoSeedMix, 492633},
		{-123456789, 513162},
	} {
		if got := protoValue(c.seed); got != c.want {
			t.Errorf("protoValue(%d) = %d, want %d", c.seed, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { protoValue(42) }); n != 0 {
		t.Fatalf("protoValue allocated %.2f times per call", n)
	}
}
