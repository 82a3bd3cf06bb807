// Package congest implements the synchronous CONGEST simulator in the
// adversarial communication model of the paper (Section 1.4). Each node runs
// its protocol as straight-line Go code and blocks in ExchangePorts, which acts as
// the end-of-round barrier; a coordinator gathers the round's directed
// traffic, lets the adversary intercept it within an engine-enforced edge
// budget, and releases the barrier.
//
// One engine, ShardEngine, executes runs: it resumes nodes as coroutines
// over parallel CSR node shards, and its single-shard form is registered as
// "step" (the default) next to "shard" in Engines. Runs are deterministic
// given Config.Seed and identical at every shard count, which the
// equivalence suites check against a test-only reference simulator written
// from the model's definition.
//
// Internally a run moves traffic through a flat, edge-indexed round buffer
// (see edgeLayout) whose payloads live in packed per-round byte arenas: each
// slot carries an 8-byte (chunk, offset, length) reference into the arena
// instead of an independently allocated []byte (see arena.go), so large-n
// rounds cost a handful of amortized arena appends rather than one heap
// object per message. The pipeline is slot-native end to end. On the node
// side, protocols program against Runtime: a node's ports are its
// neighbours in ascending order, and ExchangePorts moves the round through
// reusable per-node []Msg slices resolved out of the run's round arenas —
// the fault-free hot path allocates no per-round maps or slices at all. The map
// Exchange survives as a compat wrapper over ports (outbox folded up front,
// inbox map materialized lazily per call). On the adversary side,
// adversaries read and mutate the round through a RoundTraffic view indexed
// by edge slot, and observers read the delivered round through a RoundView
// over the same buffer; neither ever sees a map. Run-level measurement is
// pluggable via the Observer pipeline (Config.Observers); the engine's own
// statistics are a StatsObserver it installs itself. Repeated runs over the
// same graph can reuse a RunContext (see Engine.RunIn), amortizing the
// layout, round buffers, port slabs, node cores, and RNG state across runs.
//
// The model is KT1: every node knows n, its own ID, and the IDs of its
// neighbours. Nodes hold private randomness the adversary cannot see.
package congest

import (
	"errors"
	"math/rand"

	"mobilecongest/internal/graph"
)

// Msg is the payload crossing one directed edge in one round. The engine
// records message sizes so experiments can normalize round counts to
// B = O(log n)-bit units; sizes are unrestricted by default because the
// adversary model corrupts whole edge-rounds regardless of size, but a run
// can opt into enforcing the CONGEST budget with Config.Bandwidth.
type Msg []byte

// Clone returns a copy of the message (nil stays nil).
//
//mobilevet:coldpath an explicit copy; callers opt into the allocation
func (m Msg) Clone() Msg {
	if m == nil {
		return nil
	}
	c := make(Msg, len(m))
	copy(c, m)
	return c
}

// Traffic is a round's directed messages as a map — the input form of the
// free-standing RoundTraffic harness (NewRoundTraffic, Delivered) for
// exercising an Adversary outside an engine. Runs never build one.
type Traffic map[graph.DirEdge]Msg

// Adversary intercepts each round's traffic. Implementations may observe
// (eavesdroppers) or modify/inject (byzantine). The engine enforces the edge
// budget declared through PerRoundBudget or TotalBudget.
//
// The adversary reads and writes the round's directed messages by slot
// through a RoundTraffic view over the run's flat edge layout, so the
// adversarial hot path never builds a map.
//
// A wrapper around another adversary (a timer, a logger) may implement
// Unwrap() any, returning the adversary it wraps. The engine then looks up
// the budget (PerRoundBudget, TotalBudget) and RunResetter declarations on
// what Unwrap returns instead of on the wrapper, so wrapping changes neither
// the enforced budget nor the per-run reset. Without Unwrap the engine looks
// them up on the adversary itself.
type Adversary interface {
	// Intercept receives the round number and the round's traffic. The view
	// is read/write: Get reads a slot's message, Set overrides it (the
	// engine diffs overrides against the collected traffic for budget
	// accounting, then folds them into the delivered round). Messages read
	// from the view are shared with the engine's round buffer and must not
	// be mutated in place — corrupt by Setting a modified clone.
	Intercept(round int, tr *RoundTraffic)
}

// RunResetter is implemented by adversaries that carry per-run mutable state
// (RNG streams, accumulated views, spent budgets, rotation cursors). Engines
// call ResetRun once at the start of every run, before the first round, so a
// single adversary instance is safely reusable across repeated runs and
// sweep cells: two runs from the same instance with the same seed behave
// identically.
type RunResetter interface {
	ResetRun()
}

// PerRoundBudget is implemented by f-mobile (and f-static) adversaries: at
// most f undirected edges may differ between intercepted and original
// traffic in any round.
type PerRoundBudget interface {
	PerRoundEdges() int
}

// TotalBudget is implemented by round-error-rate adversaries (Section 4):
// the total number of corrupted undirected edge-rounds across the whole run
// is bounded.
type TotalBudget interface {
	TotalEdgeRounds() int
}

// Protocol is the per-node code. It runs as the node's coroutine, resumed by
// the engine between exchanges, and communicates only through
// rt.ExchangePorts (or the map Exchange); it must not block on its own
// waiting for another node.
type Protocol func(rt Runtime)

// Runtime is the node interface protocol code programs against. A node's
// ports are its neighbours in ascending ID order, and ExchangePorts moves
// each round through reusable port-indexed []Msg slices. Compilers wrap a
// Runtime (see WrappedRuntime) to interpose their simulation machinery
// between the payload protocol and the physical network.
type Runtime interface {
	// ID returns this node's identifier.
	ID() graph.NodeID
	// N returns the number of nodes in the network.
	N() int
	// Neighbors returns this node's neighbour IDs in ascending order (KT1).
	Neighbors() []graph.NodeID
	// Degree returns the number of ports (== len(Neighbors())).
	Degree() int
	// Neighbor returns the neighbour on port p (== Neighbors()[p]).
	Neighbor(p int) graph.NodeID
	// Port returns the port of neighbour v, or -1 when v is not adjacent.
	Port(v graph.NodeID) int
	// OutBuf returns the node's reusable port-indexed outbox. The engine
	// hands back the same slice every round, cleared: ExchangePorts consumes
	// its entries as it collects them, so a protocol refills it each round
	// without worrying about stale leftovers.
	OutBuf() []Msg
	// ExchangePorts sends out[p] to the neighbour on port p (nil entries
	// send nothing; out shorter than Degree leaves the tail silent) and
	// returns the round's inbox, in[p] holding the message received from
	// port p (nil means silent). It is the synchronous round barrier.
	//
	// Ownership: the engine consumes out (entries are cleared during
	// collection) and owns the returned inbox, which is only valid until
	// the next exchange — delivered payloads are views the engine rewrites
	// or releases two rounds later. A protocol must not retain or mutate
	// received messages in place (copy what it keeps). Unless the exchange
	// was lent (LendOut), each payload's bytes are copied into the round's
	// packed arena: a sent Msg must stay untouched until the exchange
	// returns, and after that the sender may reuse its payload buffer, so a
	// node can encode every round into one buffer it allocates once. Sending
	// one Msg on several ports is fine. A WrappedRuntime's ExchangePortsFn
	// upholds the same rule: it copies or consumes every payload message
	// before it returns.
	ExchangePorts(out []Msg) []Msg
	// LendOut lends the payloads of the node's next ExchangePorts to the
	// engine, which may deliver them to the receivers by reference instead
	// of copying them. The flag covers that one exchange. The sender must
	// own the lent bytes — never lend a received inbox view or a
	// RoundTraffic.Get payload — and must not write a lent payload until
	// the exchange after the lending one has returned: by then every
	// receiver has called its own next exchange, so no reader is left. A
	// node that re-sends an unchanged frame every round lends it and builds
	// a changed one in a second buffer. A WrappedRuntime copies anyway and
	// treats LendOut as a no-op.
	LendOut()
	// Exchange sends out[v] to each neighbour v (missing keys send nothing)
	// and returns the messages received this round keyed by sender. It is a
	// compat wrapper over ExchangePorts: the inbox map is materialized per
	// call (read-only; silent rounds share one canonical empty map), so code
	// on the hot path uses the port form instead.
	Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg
	// Round returns the number of completed exchanges.
	Round() int
	// Rand returns this node's private randomness (hidden from the
	// adversary).
	Rand() *rand.Rand
	// Input returns this node's protocol input (may be nil).
	Input() []byte
	// SetOutput records this node's protocol output.
	SetOutput(v any)
	// Shared returns the trusted preprocessing artifact distributed to all
	// nodes before the run (tree packings, cycle covers); nil when the run
	// has none. Protocols honouring pure KT1 must not use it.
	Shared() any
}

// Config parameterizes a simulation run.
type Config struct {
	// Graph is the communication topology.
	Graph *graph.Graph
	// Seed derives all node randomness; runs are deterministic given Seed.
	Seed int64
	// MaxRounds aborts the run when exceeded (0 means a generous default).
	MaxRounds int
	// Adversary intercepts traffic; nil means fault-free.
	Adversary Adversary
	// Inputs holds per-node protocol inputs (nil or length N).
	Inputs [][]byte
	// Shared is the trusted preprocessing artifact visible to all nodes.
	Shared any
	// Bandwidth, when positive, enforces the CONGEST per-edge-per-round
	// budget: a node sending a message larger than Bandwidth bits aborts the
	// run at collection with an ErrBandwidthExceeded error naming the
	// smallest offending (node, port) — deterministic and identical across
	// engines, like the non-neighbor error. The budget binds the protocol
	// only; adversary injections are not checked (corrupting an edge-round
	// is the adversary's prerogative regardless of size). 0 (the default)
	// leaves sizes unrestricted.
	Bandwidth int
	// Observers receive the run's round lifecycle events (see Observer).
	// Stats are always collected internally; observers add measurement —
	// traces, histograms, corruption logs — without touching the core.
	Observers []Observer
}

// Stats aggregates the run's communication measures.
type Stats struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Messages is the total number of directed messages delivered.
	Messages int
	// Bytes is the total payload volume.
	Bytes int
	// MaxMsgBytes is the largest single message.
	MaxMsgBytes int
	// MaxEdgeCongestion is the maximum number of rounds any undirected edge
	// carried at least one message.
	MaxEdgeCongestion int
	// CorruptedEdgeRounds counts undirected edge-rounds the adversary
	// touched.
	CorruptedEdgeRounds int
}

// Result is the outcome of a run.
type Result struct {
	Stats   Stats
	Outputs []any
}

// ErrRoundLimit is returned when the protocol exceeds MaxRounds.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// ErrBudgetExceeded is returned when the adversary touches more edges than
// its declared budget permits.
var ErrBudgetExceeded = errors.New("congest: adversary exceeded its edge budget")

// ErrBandwidthExceeded is returned when a node sends a message larger than
// the run's Config.Bandwidth bits over one edge in one round.
var ErrBandwidthExceeded = errors.New("congest: bandwidth exceeded")

const defaultMaxRounds = 1 << 20

// Run executes proto on every node of cfg.Graph with the default engine,
// the single-shard ShardEngine ("step"), and returns outputs and
// communication statistics. Code that wants another shard count uses a
// ShardEngine directly (or the root package's Scenario API).
func Run(cfg Config, proto Protocol) (*Result, error) {
	return ShardEngine{Shards: 1}.Run(cfg, proto)
}
