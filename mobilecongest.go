// Package mobilecongest is a Go reproduction of "Distributed CONGEST
// Algorithms against Mobile Adversaries" (Fischer and Parter, PODC 2023,
// arXiv:2305.14300): a synchronous CONGEST simulator with mobile
// eavesdropper and byzantine adversaries, plus every compiler the paper
// constructs.
//
// The five headline results and where they live:
//
//   - Theorem 1.2 — static-to-mobile security compiler:
//     secure.StaticToMobile / secure.MobileParams.
//   - Theorem 1.3 — congestion-sensitive compiler with perfect mobile
//     security: secure.CompileCongestionSensitive.
//   - Theorem 1.5/1.6/1.7 — f-mobile byzantine compilers over tree packings
//     (general graphs, the congested clique, expanders):
//     resilient.Compile with resilient.CliqueShared /
//     resilient.GeneralShared / resilient.ExpanderShared.
//   - Theorem 4.1 — resilience to bounded round-error rate via
//     rewind-if-error: rewind.Compile.
//   - Theorems 1.4/5.5 — compilation from fault-tolerant cycle covers:
//     ccpath.Compile over cyclecover.Build.
//
// This root package is the simulator's single entry surface. A simulation is
// described by a Scenario built from functional options and executed on an
// Engine:
//
//	res, err := mobilecongest.NewScenario(
//		mobilecongest.WithTopology("clique", 16, 0),
//		mobilecongest.WithProtocol(proto),
//		mobilecongest.WithAdversaryName("flip", 2),
//		mobilecongest.WithSeed(7),
//	).Run()
//
// One engine type runs every simulation, registered under two names.
// "step", the default, resumes every node as a coroutine on the calling
// goroutine; it is the single-shard form of "shard", which steps contiguous
// node shards in parallel for large graphs. Both produce identical Results
// for identical scenarios; the equivalence suites check them against a
// test-only reference simulator written from the model's definition.
//
// The simulation pipeline is slot-native end to end. Protocols program
// against Runtime: a node's ports are its neighbours in ascending order,
// and ExchangePorts moves each round through reusable
// port-indexed []Msg buffers that alias the run's flat round buffers — a
// fault-free round allocates no maps at all, and the legacy map Exchange
// survives as a compat wrapper. The adversary boundary is likewise
// slot-native: an Adversary reads and corrupts each round through a
// RoundTraffic view over the run's flat edge layout, so adversarial rounds
// build no traffic maps. Repeated Run calls on one Scenario, and every Plan
// worker, reuse a RunContext that amortizes the run's layout, buffers, and
// RNG state across runs.
//
// Parameter studies are experiment Plans: an ordered list of Axis values
// (topology, n, k, protocol and its parameter, adversary, f, engine,
// bandwidth, reps) whose cross product runs with deterministic per-cell
// seeds, streamed as cells finish or collected in grid order, and
// aggregated over repetitions with Summarize:
//
//	plan := mobilecongest.Plan{Axes: []mobilecongest.Axis{
//		mobilecongest.TopologyAxis("clique", "circulant"),
//		mobilecongest.NAxis(16, 32, 64),
//		mobilecongest.ProtocolAxis("bfs", "secure-broadcast"),
//		mobilecongest.AdversaryAxis("none", "flip"),
//		mobilecongest.FAxis(2),
//		mobilecongest.RepsAxis(3),
//	}}
//	for rec, err := range plan.Stream(ctx) { ... }
//
// Topology, adversary, AND protocol families are name-keyed registries (see
// RegisterTopology / RegisterAdversary / RegisterProtocol) so new families
// plug into scenarios, plans, and the mobilesim CLI without touching this
// package; a registered ProtocolFunc may return a trusted preprocessing
// artifact, which is how the paper's compilers (secure-broadcast,
// hardened-clique) are registered next to their payloads. The full
// low-level API lives in the internal packages listed above (importable
// inside this module).
package mobilecongest

import (
	"mobilecongest/internal/adversary"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
)

// Re-exported core types: the simulator surface downstream code programs
// against.
type (
	// Graph is the communication topology.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Msg is a round message.
	Msg = congest.Msg
	// Protocol is per-node protocol code.
	Protocol = congest.Protocol
	// Runtime is the node interface protocol code programs against.
	Runtime = congest.Runtime
	// PortRuntime is Runtime.
	//
	// Deprecated: use Runtime, which carries the port methods. The alias
	// stays only because the benchmark harness under bench/ names it; it
	// goes together with the map Exchange.
	PortRuntime = Runtime
	// Result is a run outcome.
	Result = congest.Result
	// Adversary intercepts round traffic through the slot-native
	// RoundTraffic view.
	Adversary = congest.Adversary
	// RoundTraffic is the slot-indexed view of one round's traffic handed
	// to adversaries.
	RoundTraffic = congest.RoundTraffic
	// RunContext is the reusable per-graph run state Scenario and Plan
	// amortize across repeated runs.
	RunContext = congest.RunContext
)

// Ports returns rt.
//
// Deprecated: every Runtime is port-native; call its port methods
// directly. Ports stays only because the benchmark harness under bench/
// calls it; it goes together with the map Exchange.
func Ports(rt Runtime) Runtime { return rt }

// NewClique returns the complete graph K_n.
func NewClique(n int) *Graph { return graph.Clique(n) }

// NewCirculant returns the 2k-edge-connected circulant graph C_n(1..k).
func NewCirculant(n, k int) *Graph { return graph.Circulant(n, k) }

// NewMobileEavesdropper listens on f fresh edges per round.
func NewMobileEavesdropper(g *Graph, f int, seed int64) *adversary.Eavesdropper {
	return adversary.NewMobileEavesdropper(g, f, seed)
}

// NewMobileByzantine corrupts f fresh random edges per round with random
// bit flips — the default attack model of the experiments.
func NewMobileByzantine(g *Graph, f int, seed int64) *adversary.Byzantine {
	return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)
}

// HardenClique compiles a congested-clique protocol against an f-mobile
// byzantine adversary (Theorem 1.6). Pass the returned shared artifact with
// WithShared.
func HardenClique(payload Protocol, n, f int) (Protocol, *resilient.Shared) {
	sh := resilient.CliqueShared(n)
	return resilient.Compile(payload, resilient.Config{Mode: resilient.SparseMode, F: f}), sh
}

// HardenGeneral compiles a protocol for a (k, D_TP)-connected graph against
// an f-mobile byzantine adversary using a trusted greedy tree-packing
// preprocessing (Corollary 3.9).
func HardenGeneral(payload Protocol, g *Graph, f, trees, depthBound int) (Protocol, *resilient.Shared) {
	sh := resilient.GeneralShared(g, trees, depthBound)
	return resilient.Compile(payload, resilient.Config{Mode: resilient.SparseMode, F: f}), sh
}
