package congest

import (
	"errors"
	"reflect"
	"testing"

	"mobilecongest/internal/graph"
)

// The per-edge-per-round bandwidth budget contract: runs with
// Config.Bandwidth abort at collection with ErrBandwidthExceeded naming the
// deterministic smallest offender (lowest node, then lowest port), the
// budget binds exactly at the bit boundary, and CongestionObserver's
// per-edge counts match hand-computable traffic.

// TestBandwidthViolationDeterministic: when every node oversends in the same
// round, every engine reports the identical smallest offender — node 0's
// lowest port — with the exact canonical error text.
func TestBandwidthViolationDeterministic(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		_, err := e.Run(Config{
			Graph: graph.Clique(4), Seed: 1, Bandwidth: 8,
		}, floodMax(3)) // U64Msg payloads: 64 bits > 8
		if !errors.Is(err, ErrBandwidthExceeded) {
			t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
		}
		want := "congest: bandwidth exceeded: node 0 sent 64 bits to neighbor 1, budget 8"
		if err.Error() != want {
			t.Fatalf("error text %q, want %q", err, want)
		}
	})
}

// TestBandwidthBoundaryExact: a message of exactly the budget passes; one
// byte more violates. The budget counts payload bits, not messages.
func TestBandwidthBoundaryExact(t *testing.T) {
	send := func(bytes int) Protocol {
		return func(rt Runtime) {
			out := rt.OutBuf()
			for p := range out {
				out[p] = make(Msg, bytes)
			}
			rt.ExchangePorts(out)
		}
	}
	forEngine(t, func(t *testing.T, e Engine) {
		if _, err := e.Run(Config{Graph: graph.Cycle(5), Seed: 1, Bandwidth: 64}, send(8)); err != nil {
			t.Fatalf("exactly-at-budget run failed: %v", err)
		}
		if _, err := e.Run(Config{Graph: graph.Cycle(5), Seed: 1, Bandwidth: 64}, send(9)); !errors.Is(err, ErrBandwidthExceeded) {
			t.Fatalf("one-byte-over run: err = %v, want ErrBandwidthExceeded", err)
		}
	})
}

// TestBandwidthUnlimitedByDefault: the zero Config enforces nothing, however
// large the payloads.
func TestBandwidthUnlimitedByDefault(t *testing.T) {
	proto := func(rt Runtime) {
		out := rt.OutBuf()
		for p := range out {
			out[p] = make(Msg, 4096)
		}
		rt.ExchangePorts(out)
	}
	if _, err := (ShardEngine{Shards: 1}).Run(Config{Graph: graph.Path(3), Seed: 1}, proto); err != nil {
		t.Fatalf("unlimited run failed: %v", err)
	}
}

// TestCongestionObserverBandwidthRecords: the observer's per-edge counts
// and histogram match a hand-computed workload on an unenforced run whose
// messages differ in size.
func TestCongestionObserverBandwidthRecords(t *testing.T) {
	g := graph.Path(3) // edges {0,1}, {1,2}
	co := NewCongestionObserver()
	// Each of 3 rounds: node 0 sends 8 bytes to 1 and node 2 sends 16 bytes
	// to 1. Node 1 stays silent.
	proto := func(rt Runtime) {
		for r := 0; r < 3; r++ {
			out := rt.OutBuf()
			switch rt.ID() {
			case 0:
				out[rt.Port(1)] = make(Msg, 8)
			case 2:
				out[rt.Port(1)] = make(Msg, 16)
			}
			rt.ExchangePorts(out)
		}
	}
	if _, err := (ShardEngine{Shards: 1}).Run(Config{Graph: g, Seed: 1, Observers: []Observer{co}}, proto); err != nil {
		t.Fatal(err)
	}
	want := map[graph.Edge]int{{U: 0, V: 1}: 3, {U: 1, V: 2}: 3}
	if got := co.PerEdge(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PerEdge() = %v, want %v", got, want)
	}
	if got := co.Histogram(); !reflect.DeepEqual(got, map[int]int{3: 2}) {
		t.Fatalf("Histogram() = %v, want both edges at 3", got)
	}
}
