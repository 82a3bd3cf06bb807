package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
	"weak"

	"mobilecongest/internal/graph"
)

// The lending contract of Runtime.LendOut: a lent payload reaches its
// receivers by reference, capacity-clipped, for exactly the one exchange
// the flag covers; everything else about a send — presence of an empty
// payload, the bandwidth verdict — is what the copy path gives; and a
// finished run leaves no lent buffer reachable from its context.

// lendEngines are the engines every lending case runs on: the single-shard
// engine, and two shards so receivers resolve another shard's spill list.
var lendEngines = []ShardEngine{{Shards: 1}, {Shards: 2}}

func forLendEngine(t *testing.T, fn func(t *testing.T, e ShardEngine)) {
	t.Helper()
	for _, e := range lendEngines {
		t.Run(fmt.Sprintf("shards=%d", e.Shards), func(t *testing.T) { fn(t, e) })
	}
}

// TestLendOutDeliversByReference: over three rounds, each node sends a
// buffer of its own per round and lends only the middle exchange. The
// receivers of round 1 see a view of the sender's buffer (same backing
// array, capacity clipped to the length); rounds 0 and 2 are copied, so the
// flag covers exactly the exchange after the LendOut call.
func TestLendOutDeliversByReference(t *testing.T) {
	const rounds = 3
	g := graph.Cycle(6)
	forLendEngine(t, func(t *testing.T, e ShardEngine) {
		// bufs[u][r] is node u's round-r payload: written by u before its
		// exchange, read by its neighbours after theirs return.
		bufs := make([][rounds]Msg, g.N())
		proto := func(rt Runtime) {
			u := rt.ID()
			var report []string
			for r := 0; r < rounds; r++ {
				m := make(Msg, 3, 16) // spare capacity a view must not expose
				m[0], m[1], m[2] = byte(u), byte(r), 0x5a
				bufs[u][r] = m
				out := rt.OutBuf()
				for p := range out {
					out[p] = m
				}
				if r == 1 {
					rt.LendOut()
				}
				in := rt.ExchangePorts(out)
				for p, got := range in {
					v := rt.Neighbor(p)
					sent := bufs[v][r]
					aliased := unsafe.SliceData(got) == unsafe.SliceData(sent)
					switch {
					case string(got) != string(sent):
						report = append(report, fmt.Sprintf("round %d from %d: %x, sent %x", r, v, got, sent))
					case r == 1 && !aliased:
						report = append(report, fmt.Sprintf("round %d from %d: lent payload was copied", r, v))
					case r == 1 && cap(got) != len(got):
						report = append(report, fmt.Sprintf("round %d from %d: lent view has cap %d, len %d", r, v, cap(got), len(got)))
					case r != 1 && aliased:
						report = append(report, fmt.Sprintf("round %d from %d: payload sent without LendOut was not copied", r, v))
					}
				}
			}
			rt.SetOutput(report)
		}
		res, err := e.Run(Config{Graph: g, Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		for u, o := range res.Outputs {
			for _, line := range o.([]string) {
				t.Errorf("node %d: %s", u, line)
			}
		}
	})
}

// TestLendOutEmptyPayloadPresent: a zero-length lent payload arrives
// present and empty, exactly as a copied one does, and a silent port stays
// nil.
func TestLendOutEmptyPayloadPresent(t *testing.T) {
	g := graph.Path(4)
	forLendEngine(t, func(t *testing.T, e ShardEngine) {
		proto := func(rt Runtime) {
			out := rt.OutBuf()
			out[0] = Msg{} // port 1, if any, stays silent
			rt.LendOut()
			in := rt.ExchangePorts(out)
			seen := make([]string, len(in))
			for p, m := range in {
				switch {
				case m == nil:
					seen[p] = "silent"
				case len(m) == 0:
					seen[p] = "empty"
				default:
					seen[p] = fmt.Sprintf("%x", m)
				}
			}
			rt.SetOutput(fmt.Sprint(seen))
		}
		res, err := e.Run(Config{Graph: g, Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		// Path 0-1-2-3: every node sends on port 0, its lower neighbour
		// (node 0's only one), so node 2 hears node 3 but not node 1.
		want := []string{"[empty]", "[empty empty]", "[silent empty]", "[silent]"}
		for u, o := range res.Outputs {
			if o != want[u] {
				t.Errorf("node %d inbox %v, want %v", u, o, want[u])
			}
		}
	})
}

// TestLendOutBandwidthAbortText: an over-budget lent payload aborts the run
// with the same ErrBandwidthExceeded text, naming the same smallest
// offender, as the copied payload.
func TestLendOutBandwidthAbortText(t *testing.T) {
	g := graph.Clique(5)
	send := func(lend bool) Protocol {
		return func(rt Runtime) {
			out := rt.OutBuf()
			for p := range out {
				out[p] = make(Msg, 1+int(rt.ID())+p)
			}
			if lend {
				rt.LendOut()
			}
			rt.ExchangePorts(out)
		}
	}
	forLendEngine(t, func(t *testing.T, e ShardEngine) {
		cfg := Config{Graph: g, Seed: 1, Bandwidth: 16}
		_, copied := e.Run(cfg, send(false))
		_, lent := e.Run(cfg, send(true))
		const want = "congest: bandwidth exceeded: node 0 sent 24 bits to neighbor 3, budget 16"
		if copied == nil || copied.Error() != want {
			t.Fatalf("copied payload: err = %v, want %q", copied, want)
		}
		if lent == nil || lent.Error() != copied.Error() {
			t.Fatalf("lent payload: err = %v, want %q", lent, copied)
		}
	})
}

// TestLentBufferCollectableAfterRun: once a run ends, nothing a kept
// RunContext holds — the round arenas' spill lists, the delivered inbox
// views, the outbox entries an aborted run left uncollected — keeps a
// buffer the run's nodes lent reachable. The context is warmed first, so
// its coroutines stay parked across the lending run. In the aborted run,
// node 0 alone lends, an over-budget payload: collection stops at its
// first port, before anything was lent, and its other ports still hold
// the buffer.
func TestLentBufferCollectableAfterRun(t *testing.T) {
	g := graph.Circulant(8, 2)
	cases := []struct {
		name  string
		proto func(lent *weak.Pointer[byte]) Protocol
	}{
		{"lent every exchange", func(lent *weak.Pointer[byte]) Protocol {
			return func(rt Runtime) {
				buf := make(Msg, 64)
				if rt.ID() == 0 {
					*lent = weak.Make(&buf[0])
				}
				for r := 0; r < 2; r++ {
					out := rt.OutBuf()
					for p := range out {
						out[p] = buf
					}
					rt.LendOut()
					rt.ExchangePorts(out)
				}
			}
		}},
		{"aborted run", func(lent *weak.Pointer[byte]) Protocol {
			return func(rt Runtime) {
				buf := make(Msg, 1)
				out := rt.OutBuf()
				if rt.ID() == 0 {
					buf = make(Msg, 256) // over the budget on its first port
					*lent = weak.Make(&buf[0])
					rt.LendOut()
				}
				for p := range out {
					out[p] = buf
				}
				rt.ExchangePorts(out)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forLendEngine(t, func(t *testing.T, e ShardEngine) {
				rc := NewRunContext()
				defer rc.Close()
				if _, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, portFlood(2)); err != nil {
					t.Fatal(err)
				}
				var lent weak.Pointer[byte]
				_, err := e.RunIn(rc, Config{Graph: g, Seed: 1, Bandwidth: 1024}, tc.proto(&lent))
				if aborted := errors.Is(err, ErrBandwidthExceeded); err != nil && !aborted || aborted != (tc.name == "aborted run") {
					t.Fatalf("run: err = %v", err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for lent.Value() != nil {
					if time.Now().After(deadline) {
						t.Fatal("lent buffer still reachable from the kept context after the run")
					}
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
			})
		})
	}
}
