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
			_, err := e.(ContextRunner).RunIn(rc, Config{Graph: g, Seed: 6, Adversary: adv}, floodMax(5))
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
		cr, ok := e.(ContextRunner)
		if !ok {
			t.Fatalf("engine %s does not implement ContextRunner", e.Name())
		}
		g := graph.Circulant(14, 2)
		cfg := Config{Graph: g, Seed: 9}
		proto := randProto(4)

		fresh, err := e.Run(cfg, proto)
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext()
		for rep := 0; rep < 3; rep++ {
			got, err := cr.RunIn(rc, cfg, proto)
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
		other, err := cr.RunIn(rc, Config{Graph: g, Seed: 10}, proto)
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
		pr := Ports(rt)
		acc := uint64(rt.ID())
		for r := 0; r < rounds; r++ {
			out := pr.OutBuf()
			for p := range out {
				if rt.Rand().Intn(3) == 0 {
					continue
				}
				out[p] = U64Msg(rt.Rand().Uint64())
			}
			for p, m := range pr.ExchangePorts(out) {
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
// run through goroutine → step → shard(3) → step → goroutine in one context
// must match a fresh-context run of the same engine in Stats, outputs, and
// trace, and the single-shard and goroutine runs must leave the shard run's
// parked pool intact.
func TestRunContextReuseAcrossEngines(t *testing.T) {
	g := graph.Circulant(14, 2)
	run := func(e ContextRunner, rc *RunContext) (*Result, []RoundTrace) {
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
	rc := NewRunContext()
	defer rc.Close()
	var pool *shardPool
	for i, e := range []ContextRunner{GoroutineEngine{}, StepEngine{}, ShardEngine{Shards: 3}, StepEngine{}, GoroutineEngine{}} {
		name := e.(Engine).Name()
		want, wantTrace := run(e, nil)
		got, gotTrace := run(e, rc)
		if got.Stats != want.Stats {
			t.Fatalf("run %d (%s): reused-context stats %+v != fresh %+v", i, name, got.Stats, want.Stats)
		}
		if got.Stats.CorruptedEdgeRounds == 0 {
			t.Fatalf("run %d (%s): the adversary corrupted nothing", i, name)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("run %d (%s): reused-context outputs %v != fresh %v", i, name, got.Outputs, want.Outputs)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("run %d (%s): reused-context trace differs from fresh", i, name)
		}
		if _, ok := e.(ShardEngine); ok {
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
	e := StepEngine{}
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
		cr := e.(ContextRunner)
		g := graph.Circulant(12, 2)
		adv := slotFlipper{f: 1}
		cfg := func() Config { return Config{Graph: g, Seed: 6, Adversary: adv} }
		want, err := e.Run(cfg(), floodMax(5))
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext()
		for rep := 0; rep < 2; rep++ {
			got, err := cr.RunIn(rc, cfg(), floodMax(5))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Fatalf("rep %d: stats %+v != %+v", rep, got.Stats, want.Stats)
			}
		}
	})
}
