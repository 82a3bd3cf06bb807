package congest

import (
	"math/rand"
	"sort"

	"mobilecongest/internal/graph"
)

// The port-indexed node runtime: a node's ports are its neighbours in
// ascending ID order, matching both Neighbors() and the CSR edgeLayout, so
// port i of node u addresses the directed-edge slot rowStart[u]+i. Protocols
// programmed against PortRuntime move their round through reusable []Msg
// slices backed by the run's packed round arenas — the fault-free hot path
// allocates no per-round maps at all. The map Exchange survives as a compat
// wrapper over ports (see Runtime).

// PortRuntime is the slot-native interface protocol code programs against.
// Every engine's node runtime implements it; Ports upgrades any Runtime to
// it (natively when the underlying runtime is port-aware, via a map-backed
// shim otherwise), so port-native protocols run unchanged under legacy
// compiler wrappers.
type PortRuntime interface {
	Runtime
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
	// port p (nil means silent). It is the synchronous round barrier, and
	// the port-native twin of Exchange.
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
	// a changed one in a second buffer. Runtimes that copy anyway (a
	// WrappedRuntime, the map shim) treat LendOut as a no-op.
	LendOut()
}

// Ports returns rt's port-native interface: rt itself when it is already a
// PortRuntime (every engine's runtime and WrappedRuntime are), otherwise a
// shim that adapts the map Exchange — correct for any Runtime, at the price
// of the map materializations the native path avoids. Protocols should call
// it once, up front.
func Ports(rt Runtime) PortRuntime {
	if pr, ok := rt.(PortRuntime); ok {
		return pr
	}
	return &portShim{rt: rt}
}

// portIndex finds v in the ascending neighbour list (shared by every
// PortRuntime implementation).
func portIndex(neighbors []graph.NodeID, v graph.NodeID) int {
	i := sort.Search(len(neighbors), func(i int) bool { return neighbors[i] >= v })
	if i == len(neighbors) || neighbors[i] != v {
		return -1
	}
	return i
}

// portShim adapts a plain map-based Runtime to PortRuntime for runtimes the
// engines did not build (third-party Runtime wrappers that predate ports).
type portShim struct {
	rt  Runtime
	out []Msg
	in  []Msg
}

var _ PortRuntime = (*portShim)(nil)

func (p *portShim) ID() graph.NodeID          { return p.rt.ID() }
func (p *portShim) N() int                    { return p.rt.N() }
func (p *portShim) Neighbors() []graph.NodeID { return p.rt.Neighbors() }
func (p *portShim) Round() int                { return p.rt.Round() }
func (p *portShim) Rand() *rand.Rand          { return p.rt.Rand() }
func (p *portShim) Input() []byte             { return p.rt.Input() }
func (p *portShim) SetOutput(v any)           { p.rt.SetOutput(v) }
func (p *portShim) Shared() any               { return p.rt.Shared() }

func (p *portShim) Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg {
	return p.rt.Exchange(out)
}

// LendOut is a no-op: the shim folds the outbox into a map the underlying
// runtime consumes like any other exchange.
func (p *portShim) LendOut() {}

func (p *portShim) Degree() int { return len(p.rt.Neighbors()) }

func (p *portShim) Neighbor(port int) graph.NodeID { return p.rt.Neighbors()[port] }

func (p *portShim) Port(v graph.NodeID) int { return portIndex(p.rt.Neighbors(), v) }

func (p *portShim) OutBuf() []Msg {
	if p.out == nil {
		p.out = make([]Msg, p.Degree())
	}
	return p.out
}

func (p *portShim) ExchangePorts(out []Msg) []Msg {
	nbs := p.rt.Neighbors()
	m := make(map[graph.NodeID]Msg, len(out))
	for i, msg := range out {
		if msg != nil {
			m[nbs[i]] = msg
			out[i] = nil
		}
	}
	inm := p.rt.Exchange(m)
	if p.in == nil {
		p.in = make([]Msg, len(nbs))
	}
	for i, v := range nbs {
		p.in[i] = inm[v]
	}
	return p.in
}
