package congest

import (
	"errors"
	"testing"

	"mobilecongest/internal/graph"
)

// The per-edge-per-round bandwidth budget contract: runs with
// Config.Bandwidth abort at collection with ErrBandwidthExceeded naming the
// deterministic smallest offender (lowest node, then lowest port), the
// budget binds exactly at the bit boundary, and CongestionObserver's
// per-round bandwidth records match hand-computable traffic.

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

// TestCongestionObserverBandwidthRecords: the observer's per-round records
// match a hand-computed workload — max, mean, message count, and violations
// against its observational BudgetBits.
func TestCongestionObserverBandwidthRecords(t *testing.T) {
	g := graph.Path(3) // edges {0,1}, {1,2}
	co := NewCongestionObserver()
	co.BudgetBits = 64
	// Round r: node 0 sends 8 bytes to 1; node 2 sends 16 bytes to 1 (128
	// bits — over the observer's 64-bit budget). Node 1 stays silent.
	proto := func(rt Runtime) {
		for r := 0; r < 3; r++ {
			out := map[graph.NodeID]Msg{}
			switch rt.ID() {
			case 0:
				out[1] = make(Msg, 8)
			case 2:
				out[1] = make(Msg, 16)
			}
			rt.Exchange(out)
		}
	}
	// Enforcement is off (Config.Bandwidth zero): BudgetBits only counts.
	if _, err := (ShardEngine{Shards: 1}).Run(Config{Graph: g, Seed: 1, Observers: []Observer{co}}, proto); err != nil {
		t.Fatal(err)
	}
	bw := co.Bandwidth()
	if len(bw) != 3 {
		t.Fatalf("got %d bandwidth rounds, want 3", len(bw))
	}
	for r, rec := range bw {
		if rec.Round != r {
			t.Fatalf("record %d labeled round %d", r, rec.Round)
		}
		if rec.Messages != 2 {
			t.Fatalf("round %d: %d messages, want 2", r, rec.Messages)
		}
		if rec.MaxBits != 128 {
			t.Fatalf("round %d: MaxBits = %d, want 128", r, rec.MaxBits)
		}
		if rec.MeanBits != 96 { // (64 + 128) / 2
			t.Fatalf("round %d: MeanBits = %v, want 96", r, rec.MeanBits)
		}
		if rec.Violations != 1 {
			t.Fatalf("round %d: %d violations, want 1", r, rec.Violations)
		}
	}
}
