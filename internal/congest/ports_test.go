package congest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"mobilecongest/internal/graph"
)

// portFlood is the port-native floodMax twin: zero per-round allocation on
// the node side (the outbox is the reusable OutBuf, one payload buffer is
// shared across all ports, and payload buffers double-buffer across rounds
// so a delivered message stays immutable while receivers read it).
func portFlood(rounds int) Protocol {
	return func(rt Runtime) {
		best := uint64(rt.ID())
		var words [2][8]byte
		for r := 0; r < rounds; r++ {
			w := words[r&1][:]
			binary.BigEndian.PutUint64(w, best)
			m := Msg(w)
			out := rt.OutBuf()
			for i := range out {
				out[i] = m
			}
			in := rt.ExchangePorts(out)
			for _, mm := range in {
				if mm != nil {
					if v := U64(mm); v > best {
						best = v
					}
				}
			}
		}
		rt.SetOutput(best)
	}
}

// portTestGraphs are the topology families the port <-> slot <-> neighbour
// agreement is pinned on, including degree-0 nodes.
func portTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	withIsolated := graph.New(7) // edges only among {1,3,5}; 0,2,4,6 isolated
	for _, e := range [][2]graph.NodeID{{1, 3}, {3, 5}, {1, 5}} {
		if err := withIsolated.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*graph.Graph{
		"clique9":     graph.Clique(9),
		"circulant12": graph.Circulant(12, 3),
		"expander24":  graph.RandomRegular(24, 4, rng),
		"tree-path10": graph.Path(10),
		"tree-star6":  graph.CompleteBipartite(1, 5),
		"isolated":    withIsolated,
	}
}

// TestPortSlotNeighborAgreement pins the three-way identity the port runtime
// is built on: port i of node u is Neighbors(u)[i] is edgeLayout slot
// rowStart[u]+i, with revSlot linking each direction to its reverse —
// across clique, circulant, expander, and tree topologies, including
// degree-0 nodes (empty port ranges).
func TestPortSlotNeighborAgreement(t *testing.T) {
	for name, g := range portTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			l := newEdgeLayout(g)
			for u := 0; u < g.N(); u++ {
				from := graph.NodeID(u)
				nbs := g.Neighbors(from)
				if int(l.degree(from)) != len(nbs) {
					t.Fatalf("node %d: layout degree %d, Neighbors %d", u, l.degree(from), len(nbs))
				}
				base := l.rowStart[u]
				for i, v := range nbs {
					s := base + int32(i)
					if de := (graph.DirEdge{From: from, To: v}); l.dirEdges[s] != de {
						t.Fatalf("node %d port %d: slot %d holds %v, want %v", u, i, s, l.dirEdges[s], de)
					}
					if got := l.slot(from, v); got != s {
						t.Fatalf("node %d port %d: slot(%d,%d) = %d, want %d", u, i, from, v, got, s)
					}
					rs := l.revSlot[s]
					if rs != l.slot(v, from) {
						t.Fatalf("node %d port %d: revSlot %d != slot(%d,%d) %d", u, i, rs, v, from, l.slot(v, from))
					}
					if de := (graph.DirEdge{From: v, To: from}); l.dirEdges[rs] != de {
						t.Fatalf("node %d port %d: reverse slot holds %v, want %v", u, i, l.dirEdges[rs], de)
					}
				}
			}
		})
	}
}

// TestPortRuntimeWiring checks the same identity end to end through running
// engines: every node sends its ID tagged with the port it sends on; the
// receiver verifies in[p] came from Neighbor(p) and was sent on the
// reciprocal port. Degree-0 nodes exchange empty rounds without incident.
func TestPortRuntimeWiring(t *testing.T) {
	for name, g := range portTestGraphs(t) {
		forEngine(t, func(t *testing.T, e Engine) {
			proto := func(rt Runtime) {
				if rt.Degree() != len(rt.Neighbors()) {
					rt.SetOutput(fmt.Sprintf("degree %d != neighbors %d", rt.Degree(), len(rt.Neighbors())))
					return
				}
				out := rt.OutBuf()
				if len(out) != rt.Degree() {
					rt.SetOutput("OutBuf length != Degree")
					return
				}
				for p := range out {
					v := rt.Neighbor(p)
					if rt.Neighbors()[p] != v || rt.Port(v) != p {
						rt.SetOutput(fmt.Sprintf("port %d inconsistent with neighbor %d", p, v))
						return
					}
					m := make(Msg, 0, 16)
					m = PutU64(m, uint64(rt.ID()))
					out[p] = PutU64(m, uint64(p))
				}
				in := rt.ExchangePorts(out)
				recv := make([][2]uint64, len(in)) // per port: (sender ID, sender's port)
				for p, m := range in {
					if m == nil {
						rt.SetOutput(fmt.Sprintf("port %d silent, expected a message", p))
						return
					}
					from, sentPort := U64(m), U64(m[8:])
					if graph.NodeID(from) != rt.Neighbor(p) {
						rt.SetOutput(fmt.Sprintf("port %d delivered from %d, want %d", p, from, rt.Neighbor(p)))
						return
					}
					recv[p] = [2]uint64{from, sentPort}
				}
				rt.SetOutput(recv)
			}
			res, err := e.Run(Config{Graph: g, Seed: 1}, proto)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for u, o := range res.Outputs {
				recv, ok := o.([][2]uint64)
				if !ok {
					t.Fatalf("%s node %d: %v", name, u, o)
				}
				nbs := g.Neighbors(graph.NodeID(u))
				if len(recv) != len(nbs) {
					t.Fatalf("%s node %d: %d inbox ports, degree %d", name, u, len(recv), len(nbs))
				}
				for p, r := range recv {
					sender := nbs[p]
					// The port the sender used must be the index of u in the
					// sender's ascending neighbour list — verified graph-side.
					wantPort := -1
					for i, v := range g.Neighbors(sender) {
						if v == graph.NodeID(u) {
							wantPort = i
						}
					}
					if int(r[1]) != wantPort {
						t.Fatalf("%s: %d->%d used sender port %d, want %d", name, sender, u, r[1], wantPort)
					}
				}
			}
		})
	}
}

// TestPortNativeFaultFreeMaterializesNoMaps: a fault-free run of a
// port-native protocol moves every round through the slot buffers alone —
// collection, delivery, and the observers' RoundView — and converges on
// every engine. No map form of a round exists to materialize: observers
// and adversaries see only the slot views.
func TestPortNativeFaultFreeMaterializesNoMaps(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		rec := &lifecycleRecorder{}
		res, err := e.Run(Config{
			Graph: graph.Circulant(24, 3), Seed: 5,
			Observers: []Observer{rec},
		}, portFlood(6))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.delivered) != res.Stats.Rounds {
			t.Fatalf("observer saw %d rounds, stats say %d", len(rec.delivered), res.Stats.Rounds)
		}
		if res.Stats.Messages == 0 {
			t.Fatal("port flood sent nothing")
		}
		for i, o := range res.Outputs {
			if o.(uint64) != 23 {
				t.Fatalf("node %d output %v, want 23", i, o)
			}
		}
	})
}

// TestPortNativeFaultFreeZeroAllocPerRound pins the tentpole claim: on the
// fault-free port-native path, a reused RunContext executes extra rounds
// with ZERO additional allocations — no per-round maps, no per-round
// slices, nothing. Measured as the allocation delta between an R-round and
// a 2R-round run of the same protocol in the same context, on both engines.
func TestPortNativeFaultFreeZeroAllocPerRound(t *testing.T) {
	g := graph.Circulant(24, 3)
	forEngine(t, func(t *testing.T, e Engine) {
		rc := NewRunContext()
		measure := func(rounds int) float64 {
			proto := portFlood(rounds)
			// Warm the context so slab/touched capacities reach steady state.
			if _, err := e.RunIn(rc, Config{Graph: g, Seed: 3}, proto); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(10, func() {
				if _, err := e.RunIn(rc, Config{Graph: g, Seed: 3}, proto); err != nil {
					t.Fatal(err)
				}
			})
		}
		base := measure(4)
		double := measure(8)
		if double > base {
			t.Fatalf("per-round allocation on the fault-free port path: %.1f allocs at 4 rounds, %.1f at 8", base, double)
		}
	})
}

// TestExchangeCompatOverPorts locks the compat wrapper's semantics: map and
// port forms of the same protocol produce identical Results, a nil-map
// Exchange works, the inbox map of a silent round is the shared canonical
// empty map (never nil), and mixing both forms within one protocol works.
func TestExchangeCompatOverPorts(t *testing.T) {
	g := graph.Circulant(16, 2)
	forEngine(t, func(t *testing.T, e Engine) {
		want, err := e.Run(Config{Graph: g, Seed: 9}, floodMax(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run(Config{Graph: g, Seed: 9}, portFlood(5))
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats != got.Stats {
			t.Fatalf("stats differ map vs port:\n map  %+v\n port %+v", want.Stats, got.Stats)
		}
		for i := range want.Outputs {
			if want.Outputs[i] != got.Outputs[i] {
				t.Fatalf("node %d: map %v port %v", i, want.Outputs[i], got.Outputs[i])
			}
		}

		mixed := func(rt Runtime) {
			in := rt.Exchange(nil) // nil map: silent round
			if in == nil {
				panic("silent inbox must not be nil")
			}
			if len(in) != 0 {
				panic("expected empty inbox")
			}
			out := rt.OutBuf()
			for p := range out {
				out[p] = U64Msg(uint64(rt.ID()))
			}
			pin := rt.ExchangePorts(out)
			sum := uint64(0)
			for _, m := range pin {
				sum += U64(m)
			}
			min := rt.Exchange(map[graph.NodeID]Msg{rt.Neighbors()[0]: U64Msg(sum)})
			_ = min
			rt.SetOutput(sum)
		}
		if _, err := e.Run(Config{Graph: g, Seed: 2}, mixed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPortOutboxTooLongRejected: an outbox longer than the node's degree
// aborts the run with a descriptive error instead of corrupting slots.
func TestPortOutboxTooLongRejected(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		bad := func(rt Runtime) {
			out := make([]Msg, rt.Degree()+1)
			out[len(out)-1] = U64Msg(1)
			rt.ExchangePorts(out)
		}
		if _, err := e.Run(Config{Graph: graph.Path(3), Seed: 1}, bad); err == nil {
			t.Fatal("oversized port outbox accepted")
		}
	})
}

// TestMapExchangeIgnoresAbandonedOutBuf: a map Exchange sends exactly the
// map's entries — port writes a protocol abandoned in OutBuf before
// switching forms are cleared, not leaked onto the wire.
func TestMapExchangeIgnoresAbandonedOutBuf(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		proto := func(rt Runtime) {
			out := rt.OutBuf()
			for p := range out {
				out[p] = U64Msg(42) // abandoned: the round exchanges via the map form
			}
			in := rt.Exchange(nil)
			rt.SetOutput(len(in))
		}
		res, err := e.Run(Config{Graph: graph.Path(2), Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Messages != 0 {
			t.Fatalf("abandoned OutBuf entries leaked: %d messages sent", res.Stats.Messages)
		}
		for i, o := range res.Outputs {
			if o.(int) != 0 {
				t.Fatalf("node %d received %d messages, want 0", i, o)
			}
		}
	})
}
