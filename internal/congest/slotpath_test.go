package congest

import (
	"errors"
	"reflect"
	"testing"

	"mobilecongest/internal/graph"
)

// slotFlipper is a minimal slot-native byzantine: each round it XORs the
// first byte of the first f occupied slots.
type slotFlipper struct{ f int }

func (a slotFlipper) PerRoundEdges() int { return a.f }

func (a slotFlipper) Intercept(_ int, tr *RoundTraffic) {
	n := 0
	for s, m := range tr.All() {
		if n == a.f {
			break
		}
		if len(m) == 0 {
			continue
		}
		c := m.Clone()
		c[0] ^= 0xFF
		tr.Set(s, c)
		n++
	}
}

// TestSlotNativeAdversaryMaterializesNoMaps: with a slot-native adversary
// installed, every round moves through the slot buffers alone — intercept,
// budget diff, delivery, and the observers' RoundView — on every engine,
// and the corruption reaches the stats. No map form of a round exists to
// materialize: adversaries and observers see only the slot views.
func TestSlotNativeAdversaryMaterializesNoMaps(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		rec := &lifecycleRecorder{}
		res, err := e.Run(Config{
			Graph: graph.Circulant(24, 3), Seed: 5,
			Adversary: slotFlipper{f: 2},
			Observers: []Observer{rec},
		}, floodMax(6))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.delivered) != res.Stats.Rounds {
			t.Fatalf("observer saw %d rounds, stats say %d", len(rec.delivered), res.Stats.Rounds)
		}
		if res.Stats.CorruptedEdgeRounds == 0 {
			t.Fatal("slot flipper corrupted nothing")
		}
	})
}

// resetCounter is a slot-native adversary declaring a per-round budget of f
// edges while flipping the first `touch` occupied slots each round, and
// counting its run resets.
type resetCounter struct {
	f, touch int
	resets   int
}

func (a *resetCounter) PerRoundEdges() int { return a.f }
func (a *resetCounter) ResetRun()          { a.resets++ }
func (a *resetCounter) Intercept(round int, tr *RoundTraffic) {
	slotFlipper{f: a.touch}.Intercept(round, tr)
}

// unwrapping forwards Intercept and exposes its inner adversary through
// Unwrap, the way a timing or logging wrapper does.
type unwrapping struct{ inner Adversary }

func (w unwrapping) Intercept(round int, tr *RoundTraffic) { w.inner.Intercept(round, tr) }
func (w unwrapping) Unwrap() any                           { return w.inner }

// TestAdversaryUnwrapHook: the engine looks up the budget and run-reset
// declarations through Unwrap, so a wrapper neither hides an over-budget
// adversary nor skips its per-run reset. A wrapper without Unwrap is the
// control: its inner declarations stay invisible.
func TestAdversaryUnwrapHook(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Circulant(12, 2)
		run := func(rc *RunContext, adv Adversary) error {
			_, err := e.RunIn(rc, Config{Graph: g, Seed: 6, Adversary: adv}, floodMax(5))
			return err
		}

		over := &resetCounter{f: 1, touch: 2}
		if err := run(nil, unwrapping{inner: over}); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("wrapped over-budget adversary: err = %v, want ErrBudgetExceeded", err)
		}
		if err := run(nil, struct{ Adversary }{over}); err != nil {
			t.Fatalf("control wrapper without Unwrap: err = %v, want its inner budget unseen", err)
		}
		if over.resets != 1 {
			t.Fatalf("over-budget adversary reset %d times, want once (the control hides ResetRun)", over.resets)
		}

		within := &resetCounter{f: 1, touch: 1}
		rc := NewRunContext()
		for n := 1; n <= 2; n++ {
			if err := run(rc, unwrapping{inner: within}); err != nil {
				t.Fatal(err)
			}
			if within.resets != n {
				t.Fatalf("after run %d on one RunContext: ResetRun called %d times, want %d", n, within.resets, n)
			}
		}
	})
}

// TestRunContextReuseDeterministic: repeated runs inside one RunContext are
// byte-identical to fresh-context runs — reused RNGs re-seed exactly, reused
// buffers leak nothing between runs, and stats reset fully.
func TestRunContextReuseDeterministic(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Circulant(14, 2)
		cfg := Config{Graph: g, Seed: 9}
		proto := randProto(4)

		fresh, err := e.Run(cfg, proto)
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext()
		for rep := 0; rep < 3; rep++ {
			got, err := e.RunIn(rc, cfg, proto)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != fresh.Stats {
				t.Fatalf("rep %d: reused-context stats %+v != fresh %+v", rep, got.Stats, fresh.Stats)
			}
			for i := range got.Outputs {
				if got.Outputs[i] != fresh.Outputs[i] {
					t.Fatalf("rep %d: node %d output %v != fresh %v", rep, i, got.Outputs[i], fresh.Outputs[i])
				}
			}
		}
		// Different seeds through the same context still diverge.
		other, err := e.RunIn(rc, Config{Graph: g, Seed: 10}, proto)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range other.Outputs {
			if other.Outputs[i] != fresh.Outputs[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical outputs through a reused context")
		}
	})
}

// silentRandProto is a port-native randProto with silent edges: each round
// every port stays silent with probability 1/3, so inboxes mix delivered and
// nil slots and a stale slot left by an earlier round or run would show in
// the output.
func silentRandProto(rounds int) Protocol {
	return func(rt Runtime) {
		acc := uint64(rt.ID())
		for r := 0; r < rounds; r++ {
			out := rt.OutBuf()
			for p := range out {
				if rt.Rand().Intn(3) == 0 {
					continue
				}
				out[p] = U64Msg(rt.Rand().Uint64())
			}
			for p, m := range rt.ExchangePorts(out) {
				if m == nil {
					acc = acc*31 + uint64(p)
					continue
				}
				acc ^= U64(m) + uint64(p)
			}
		}
		rt.SetOutput(acc)
	}
}

// TestRunContextReuseAcrossEngines: a Plan with an engine axis hands one
// worker's RunContext to every engine in turn. An adversarial, silent-edge
// run through step → shard(3) → step → shard(3) → step in one context must
// match a fresh-context run of the same engine in Stats, outputs, and trace;
// the single-shard runs must leave the shard run's parked pool intact, and
// the second shard run must reuse it. Between the runs, each engine also
// fails runs in the context — a bandwidth overrun, the round limit, a
// too-long port outbox, and a protocol panic — after which the context must
// still give the fresh result: an abort keeps the parked coroutine slab
// (every coroutine parked again), a panic drops it for the next run to
// rebuild.
func TestRunContextReuseAcrossEngines(t *testing.T) {
	g := graph.Circulant(14, 2)
	run := func(e Engine, rc *RunContext) (*Result, []RoundTrace) {
		t.Helper()
		tr := NewTraceObserver()
		res, err := e.RunIn(rc, Config{
			Graph: g, Seed: 11, Adversary: slotFlipper{f: 2},
			Observers: []Observer{tr},
		}, silentRandProto(6))
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Rounds()
	}
	failures := []struct {
		name    string
		cfg     Config
		proto   Protocol
		wantErr error // nil: any error
		panics  bool
	}{
		{name: "bandwidth", cfg: Config{Graph: g, Seed: 11, Bandwidth: 8}, proto: silentRandProto(6), wantErr: ErrBandwidthExceeded},
		{name: "round-limit", cfg: Config{Graph: g, Seed: 11, MaxRounds: 3}, proto: silentRandProto(6), wantErr: ErrRoundLimit},
		{name: "bad-outbox", cfg: Config{Graph: g, Seed: 11}, proto: tooLongOutboxAt(9, 2, silentRandProto(6))},
		{name: "panic", cfg: Config{Graph: g, Seed: 11}, proto: panicAt(5, 2, silentRandProto(6)), panics: true},
	}
	fail := func(e Engine, rc *RunContext, name string, cfg Config, proto Protocol, wantErr error, panics bool) {
		t.Helper()
		if panics {
			defer func() {
				if r := recover(); r != "coroutine-test-boom" {
					t.Fatalf("%s: recovered %v, want the protocol's panic", name, r)
				}
			}()
		}
		_, err := e.RunIn(rc, cfg, proto)
		if err == nil || (wantErr != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("%s: error %v, want %v", name, err, wantErr)
		}
	}
	rc := NewRunContext()
	defer rc.Close()
	var pool *shardPool
	for i, e := range []Engine{ShardEngine{Shards: 1}, ShardEngine{Shards: 3}, ShardEngine{Shards: 1}, ShardEngine{Shards: 3}, ShardEngine{Shards: 1}} {
		name := e.Name()
		want, wantTrace := run(e, nil)
		check := func(label string) {
			t.Helper()
			got, gotTrace := run(e, rc)
			if got.Stats != want.Stats {
				t.Fatalf("run %d (%s) %s: reused-context stats %+v != fresh %+v", i, name, label, got.Stats, want.Stats)
			}
			if got.Stats.CorruptedEdgeRounds == 0 {
				t.Fatalf("run %d (%s) %s: the adversary corrupted nothing", i, name, label)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("run %d (%s) %s: reused-context outputs %v != fresh %v", i, name, label, got.Outputs, want.Outputs)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("run %d (%s) %s: reused-context trace differs from fresh", i, name, label)
			}
			if rc.coros != nil {
				if got := parkedCoroutines(rc.coros.nodes); got != len(rc.coros.nodes) {
					t.Fatalf("run %d (%s) %s: %d of %d coroutines parked", i, name, label, got, len(rc.coros.nodes))
				}
			}
		}
		check("first")
		for _, f := range failures {
			slab := rc.coros
			fail(e, rc, f.name, f.cfg, f.proto, f.wantErr, f.panics)
			switch {
			case f.panics && slab != nil:
				if rc.coros != nil {
					t.Fatalf("run %d (%s): a panicking run kept the coroutine slab", i, name)
				}
				if got := parkedCoroutines(slab.nodes); got != 0 {
					t.Fatalf("run %d (%s): %d coroutines of the dropped slab still parked", i, name, got)
				}
			case !f.panics && slab != nil && rc.coros != slab:
				t.Fatalf("run %d (%s): an aborted %s run replaced the coroutine slab", i, name, f.name)
			}
			check("after " + f.name)
		}
		if name == "shard" {
			if pool != nil && rc.pool != pool {
				t.Fatalf("run %d: shard(3) rebuilt the context's pool", i)
			}
			pool = rc.pool
			if pool == nil || pool.size != 2 {
				t.Fatalf("run %d: shard(3) parked %+v, want a pool of 2 workers", i, pool)
			}
			waitPoolWorkers(t, pool, 2)
			continue
		}
		if rc.pool != pool {
			t.Fatalf("run %d (%s) replaced the context's pool", i, name)
		}
		if pool != nil {
			if got := poolWorkers(pool); got != 2 {
				t.Fatalf("run %d (%s) left %d of the pool's 2 workers parked", i, name, got)
			}
		}
	}
}

// TestRunContextRebindsAcrossGraphs: one context serving runs on different
// graphs (the sweep-worker pattern) rebinds cleanly, including back-to-back
// alternation.
func TestRunContextRebindsAcrossGraphs(t *testing.T) {
	g1 := graph.Clique(6)
	g2 := graph.Cycle(9)
	rc := NewRunContext()
	e := ShardEngine{Shards: 1}
	for rep := 0; rep < 2; rep++ {
		for _, g := range []*graph.Graph{g1, g2} {
			want, err := e.Run(Config{Graph: g, Seed: 4}, floodMax(3))
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.RunIn(rc, Config{Graph: g, Seed: 4}, floodMax(3))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Fatalf("rebind n=%d: stats %+v != %+v", g.N(), got.Stats, want.Stats)
			}
		}
	}
}

// TestRunContextReuseWithAdversary: a stateful adversary instance reused
// across runs in one context resets per run (RunResetter), so every run
// corrupts identically — and identically to a fresh-context run.
func TestRunContextReuseWithAdversary(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		g := graph.Circulant(12, 2)
		adv := slotFlipper{f: 1}
		cfg := func() Config { return Config{Graph: g, Seed: 6, Adversary: adv} }
		want, err := e.Run(cfg(), floodMax(5))
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext()
		for rep := 0; rep < 2; rep++ {
			got, err := e.RunIn(rc, cfg(), floodMax(5))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Fatalf("rep %d: stats %+v != %+v", rep, got.Stats, want.Stats)
			}
		}
	})
}
