package mobilecongest

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// TestEngineEquivalenceProperty is the cross-engine determinism contract: for
// a randomized corpus of graphs, protocols, adversaries, and seeds, every
// engine must match the reference simulator (reference_test.go), which
// shares none of the engines' code: identical error text on trials that
// abort, and otherwise equal Stats, byte-identical outputs, byte-identical
// traces (per-round delivered messages in canonical order, payloads, and
// corrupted edge sets), and (for eavesdroppers) byte-identical adversary
// views. Any scheduling leak or collection, adversary-boundary, or delivery
// bug in any engine — a reordered RNG draw, a miscounted round, a dropped
// slot — shows up here.
//
// The engines checked are step and the shard engine at shard counts 1, 2,
// GOMAXPROCS, and one larger than every corpus graph — the parallel
// engine's determinism contract across shard boundaries, empty shards, and
// the n < shards clamp.
//
// Every trial additionally runs a port-vs-map protocol leg: the same
// protocol logic written against the map Exchange on the reference and the
// engines, which must be byte-identical to the port-native reference run.
// Trials of the randomload family also run a lending leg: the same traffic
// sent from buffers the nodes lend (lentLoad), which the engines deliver by
// reference, again byte-identical to the reference run.
//
// Finally, every trial's step-engine run is pinned to
// testdata/engine_equivalence_golden.txt: its Stats and digests of its
// outputs, trace, and eavesdropper view. The golden was generated while the
// slot-native adversaries were still checked against map-based mirrors of
// their historic implementations, so it keeps that behaviour pinned.
// Regenerate with -update-golden only for a deliberate behaviour change.
func TestEngineEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE9))
	const trials = 120

	graphFams := []func(r *rand.Rand) (string, *graph.Graph){
		func(r *rand.Rand) (string, *graph.Graph) {
			n := 4 + r.Intn(12)
			return fmt.Sprintf("clique(%d)", n), graph.Clique(n)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			n := 4 + r.Intn(28)
			return fmt.Sprintf("cycle(%d)", n), graph.Cycle(n)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			n, k := 8+r.Intn(16), 2+r.Intn(2)
			return fmt.Sprintf("circulant(%d,%d)", n, k), graph.Circulant(n, k)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			rows, cols := 2+r.Intn(3), 2+r.Intn(4)
			return fmt.Sprintf("grid(%d,%d)", rows, cols), graph.Grid(rows, cols)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			d := 2 + r.Intn(3)
			return fmt.Sprintf("hypercube(%d)", d), graph.Hypercube(d)
		},
		func(*rand.Rand) (string, *graph.Graph) {
			return "petersen", graph.Petersen()
		},
	}

	// randomLoad stresses everything at once: private randomness, variable
	// message sizes, silent rounds, and data-dependent early termination.
	// The map form is the historical implementation; the port form draws
	// randomness in the same ascending-neighbour order, so the two emit
	// byte-identical traffic — the port-vs-map protocol leg below pins that.
	randomLoad := func(rounds int) Protocol {
		return func(rt congest.Runtime) {
			acc := uint64(rt.ID())
			for r := 0; r < rounds; r++ {
				out := make(map[graph.NodeID]congest.Msg)
				for _, v := range rt.Neighbors() {
					if rt.Rand().Intn(3) == 0 {
						continue // silent edge this round
					}
					m := make(congest.Msg, 1+rt.Rand().Intn(24))
					rt.Rand().Read(m)
					out[v] = m
				}
				in := rt.Exchange(out)
				for _, m := range in {
					acc ^= congest.U64(m) + uint64(len(m))
				}
				if acc%13 == 0 {
					break // early, data-dependent termination
				}
			}
			rt.SetOutput(acc)
		}
	}
	portRandomLoad := func(rounds int) Protocol {
		return func(rt congest.Runtime) {
			acc := uint64(rt.ID())
			for r := 0; r < rounds; r++ {
				out := rt.OutBuf()
				for p := range out {
					if rt.Rand().Intn(3) == 0 {
						continue // silent edge this round
					}
					m := make(congest.Msg, 1+rt.Rand().Intn(24))
					rt.Rand().Read(m)
					out[p] = m
				}
				in := rt.ExchangePorts(out)
				for _, m := range in {
					if m == nil {
						continue
					}
					acc ^= congest.U64(m) + uint64(len(m))
				}
				if acc%13 == 0 {
					break // early, data-dependent termination
				}
			}
			rt.SetOutput(acc)
		}
	}
	// mapFloodMax and mapBroadcast replicate the pre-port map
	// implementations of the algorithms package protocols verbatim.
	mapFloodMax := func(rounds int) Protocol {
		return func(rt congest.Runtime) {
			best := uint64(rt.ID())
			for r := 0; r < rounds; r++ {
				out := make(map[graph.NodeID]congest.Msg, len(rt.Neighbors()))
				for _, v := range rt.Neighbors() {
					out[v] = congest.U64Msg(best)
				}
				in := rt.Exchange(out)
				for _, m := range in {
					if v := congest.U64(m); v > best {
						best = v
					}
				}
			}
			rt.SetOutput(best)
		}
	}
	mapBroadcast := func(root graph.NodeID, value uint64, rounds int) Protocol {
		return func(rt congest.Runtime) {
			var have uint64
			if rt.ID() == root {
				have = value
			}
			for r := 0; r < rounds; r++ {
				out := make(map[graph.NodeID]congest.Msg, len(rt.Neighbors()))
				for _, v := range rt.Neighbors() {
					out[v] = congest.U64Msg(have)
				}
				in := rt.Exchange(out)
				if have == 0 {
					for _, m := range in {
						if v := congest.U64(m); v != 0 && (have == 0 || v < have) {
							have = v
						}
					}
				}
			}
			rt.SetOutput(have)
		}
	}

	// Each family yields the port-native protocol plus a map-Exchange mirror
	// of the same logic, for the port-vs-map compat leg, and optionally a
	// lending form of the same traffic, for the lending leg. Only randomload
	// has one: lentLoad with its draws, whose map mirror is randomLoad.
	protoFams := []func(g *graph.Graph, r *rand.Rand) (name string, port, mapMirror, lending Protocol){
		func(g *graph.Graph, r *rand.Rand) (string, Protocol, Protocol, Protocol) {
			rounds := g.Diameter() + 1 + r.Intn(3)
			return fmt.Sprintf("floodmax(%d)", rounds), algorithms.FloodMax(rounds), mapFloodMax(rounds), nil
		},
		func(g *graph.Graph, r *rand.Rand) (string, Protocol, Protocol, Protocol) {
			rounds := g.Diameter() + 1
			val := r.Uint64() % 1000
			return fmt.Sprintf("broadcast(%d)", rounds), algorithms.Broadcast(0, val, rounds), mapBroadcast(0, val, rounds), nil
		},
		func(g *graph.Graph, r *rand.Rand) (string, Protocol, Protocol, Protocol) {
			rounds := 3 + r.Intn(6)
			return fmt.Sprintf("randomload(%d)", rounds), portRandomLoad(rounds), randomLoad(rounds), lentLoad(rounds, 1, true)
		},
	}

	// Each adversary family builds a FRESH instance per engine run (they are
	// stateful) from the same parameters, so both engines face an identical
	// opponent.
	type advFamily struct {
		name string
		mk   func() congest.Adversary
	}
	advFams := []func(g *graph.Graph, f int, seed int64) advFamily{
		func(*graph.Graph, int, int64) advFamily {
			return advFamily{name: "none", mk: func() congest.Adversary { return nil }}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "eavesdrop",
				mk:   func() congest.Adversary { return adversary.NewMobileEavesdropper(g, f, seed) },
			}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "flip",
				mk: func() congest.Adversary {
					return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptFlip)
				},
			}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "drop",
				mk: func() congest.Adversary {
					return adversary.NewMobileByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptDrop)
				},
			}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "swap-busiest",
				mk: func() congest.Adversary {
					return adversary.NewMobileByzantine(g, f, seed, adversary.SelectBusiest, adversary.CorruptSwap)
				},
			}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "inject-static",
				mk: func() congest.Adversary {
					return adversary.NewStaticByzantine(g, f, seed, adversary.SelectRandom, adversary.CorruptInject)
				},
			}
		},
		func(g *graph.Graph, f int, seed int64) advFamily {
			return advFamily{
				name: "error-rate",
				mk: func() congest.Adversary {
					return adversary.NewRoundErrorRate(g, 3*f, []int{0, f, 1}, seed, adversary.SelectRandom, adversary.CorruptRandomize)
				},
			}
		},
	}

	var golden []string
	for trial := 0; trial < trials; trial++ {
		gname, g := graphFams[rng.Intn(len(graphFams))](rng)
		pname, proto, mapProto, lendProto := protoFams[rng.Intn(len(protoFams))](g, rng)
		f := 1 + rng.Intn(3)
		advSeed := rng.Int63()
		fam := advFams[rng.Intn(len(advFams))](g, f, advSeed)
		seed := rng.Int63()
		label := fmt.Sprintf("trial %d: %s/%s/%s f=%d seed=%d", trial, gname, pname, fam.name, f, seed)

		type leg struct {
			res   *Result
			adv   congest.Adversary
			trace []byte
			err   error
		}
		run := func(e Engine, p Protocol) leg {
			adv := fam.mk()
			res, rounds, err := runTraced(e, congest.Config{Graph: g, Seed: seed, Adversary: adv, MaxRounds: 1 << 16}, p)
			if err == nil && len(rounds) != res.Stats.Rounds {
				t.Fatalf("%s: %s trace has %d rounds, stats say %d", label, e.Name(), len(rounds), res.Stats.Rounds)
			}
			tr, jerr := json.Marshal(rounds)
			if jerr != nil {
				t.Fatal(jerr)
			}
			return leg{res, adv, tr, err}
		}
		want := run(&refEngine{}, proto)
		// check compares one leg with the reference: identical error text,
		// or equal Stats and byte-identical outputs, traces, and
		// eavesdropper views.
		check := func(name string, got leg) {
			t.Helper()
			if want.err != nil || got.err != nil {
				if want.err == nil || got.err == nil || want.err.Error() != got.err.Error() {
					t.Fatalf("%s: %s error %v, reference %v", label, name, got.err, want.err)
				}
				return
			}
			if got.res.Stats != want.res.Stats {
				t.Fatalf("%s: stats differ on %s:\n reference %+v\n engine    %+v", label, name, want.res.Stats, got.res.Stats)
			}
			wout, gout := fmt.Sprintf("%#v", want.res.Outputs), fmt.Sprintf("%#v", got.res.Outputs)
			if wout != gout {
				t.Fatalf("%s: outputs differ on %s:\n reference %s\n engine    %s", label, name, wout, gout)
			}
			if string(got.trace) != string(want.trace) {
				t.Fatalf("%s: traces differ on %s:\n reference %s\n engine    %s", label, name, want.trace, got.trace)
			}
			if we, ok := want.adv.(*adversary.Eavesdropper); ok {
				if string(got.adv.(*adversary.Eavesdropper).ViewBytes()) != string(we.ViewBytes()) {
					t.Fatalf("%s: eavesdropper views differ on %s", label, name)
				}
			}
		}

		step := run(EngineStep, proto)
		check("step", step)
		if step.err != nil {
			golden = append(golden, fmt.Sprintf("%s error=%q", label, step.err.Error()))
		} else {
			golden = append(golden, equivalenceGoldenLine(label, step.res.Stats, fmt.Sprintf("%#v", step.res.Outputs), step.trace, step.adv))
		}
		// Shard-engine leg: the degenerate single shard, a boundary-heavy
		// split, the GOMAXPROCS default, and one count larger than every
		// corpus graph (n <= 36 < 64), so empty shards and the clamp to n
		// are exercised on every machine. Sharding changes scheduling only.
		for _, sc := range []int{1, 2, runtime.GOMAXPROCS(0), 64} {
			check(fmt.Sprintf("shard(%d)", sc), run(NewShardEngine(sc), proto))
		}
		// Port-vs-map protocol leg: the same protocol written against the
		// map Exchange must be indistinguishable from the port-native run on
		// the reference and on every engine.
		for _, e := range []Engine{&refEngine{}, EngineStep, EngineShard} {
			check("map protocol on "+e.Name(), run(e, mapProto))
		}
		// Lending leg: the same traffic sent from lent buffers, which the
		// engines deliver by reference and the reference copies, must be
		// indistinguishable from the copied run at every shard count.
		if lendProto != nil {
			check("lending protocol on reference", run(&refEngine{}, lendProto))
			check("lending protocol on step", run(EngineStep, lendProto))
			for _, sc := range []int{1, 2, runtime.GOMAXPROCS(0), 64} {
				check(fmt.Sprintf("lending protocol on shard(%d)", sc), run(NewShardEngine(sc), lendProto))
			}
		}
	}
	checkGolden(t, engineEquivalenceGoldenFile, golden)
}

const engineEquivalenceGoldenFile = "testdata/engine_equivalence_golden.txt"

// lentLoad is the lending protocol family of the equivalence suites. Each
// round a node draws per port, from its private RNG, whether the port stays
// silent (one in three, when silent is set) and a payload of minLen..24
// random bytes. It writes the payloads into one of two per-port buffer sets
// it owns, in turn, and lends every exchange, so a set is rewritten only
// after the exchange following the one that lent it has returned. Inboxes
// fold into a running hash with data-dependent early termination. With
// minLen 1 and silent ports it draws exactly as randomLoad does, so the two
// send byte-identical traffic; with minLen 0 some lent payloads are empty.
func lentLoad(rounds, minLen int, silent bool) Protocol {
	return func(rt congest.Runtime) {
		sets := [2][]congest.Msg{make([]congest.Msg, rt.Degree()), make([]congest.Msg, rt.Degree())}
		acc := uint64(rt.ID())
		for r := 0; r < rounds; r++ {
			bufs := sets[r%2]
			out := rt.OutBuf()
			for p := range out {
				if silent && rt.Rand().Intn(3) == 0 {
					continue // silent edge this round
				}
				n := minLen + rt.Rand().Intn(25-minLen)
				m := slices.Grow(bufs[p][:0], n)[:n]
				rt.Rand().Read(m)
				bufs[p], out[p] = m, m
			}
			rt.LendOut()
			in := rt.ExchangePorts(out)
			for _, m := range in {
				if m == nil {
					continue
				}
				acc ^= congest.U64(m) + uint64(len(m))
			}
			if acc%13 == 0 {
				break // early, data-dependent termination
			}
		}
		rt.SetOutput(acc)
	}
}

// runTraced runs proto on e and returns the run's per-round trace next to
// its result.
func runTraced(e Engine, cfg congest.Config, proto Protocol) (*Result, []RoundTrace, error) {
	tr := NewTraceObserver()
	cfg.Observers = append(cfg.Observers, tr)
	res, err := e.Run(cfg, proto)
	return res, traceOf(e, tr), err
}

// traceOf returns the trace of e's last run: the one the reference
// recomputed, or what tr recorded on an engine.
func traceOf(e Engine, tr *TraceObserver) []RoundTrace {
	if ref, ok := e.(*refEngine); ok {
		return ref.trace
	}
	return tr.Rounds()
}

// equivalenceGoldenLine renders one passing trial's step-engine run as a
// digest line: its Stats, then hashes of the rendered outputs, the trace
// JSON, and the eavesdropper view ("-" for other adversaries).
func equivalenceGoldenLine(label string, st congest.Stats, outputs string, trace []byte, adv congest.Adversary) string {
	view := "-"
	if e, ok := adv.(*adversary.Eavesdropper); ok {
		view = digest(e.ViewBytes())
	}
	return fmt.Sprintf("%s rounds=%d messages=%d bytes=%d maxmsg=%d maxcong=%d corrupted=%d outputs=%s trace=%s view=%s",
		label, st.Rounds, st.Messages, st.Bytes, st.MaxMsgBytes, st.MaxEdgeCongestion, st.CorruptedEdgeRounds,
		digest([]byte(outputs)), digest(trace), view)
}

// digest is a short hex SHA-256 prefix for golden lines.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// TestEngineEquivalenceBandwidth is the bandwidth leg of the cross-engine
// contract: for random graphs, variable-size traffic, and random per-edge
// bit budgets straddling the message-size distribution, every engine must
// match the reference simulator: byte-identical Results and traces on
// passing trials, and the identical deterministic
// congest.ErrBandwidthExceeded error — same smallest offender, same text —
// on violating ones. Any divergence in where the engines check the budget
// (collection order, shard boundaries) shows up here. Every trial runs a
// copied load and a lending one (lentLoad), whose lent payloads the engines
// deliver by reference, so a lent payload meets the same verdict.
func TestEngineEquivalenceBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBA))
	const trials = 60

	graphFams := []func(r *rand.Rand) (string, *graph.Graph){
		func(r *rand.Rand) (string, *graph.Graph) {
			n := 4 + r.Intn(12)
			return fmt.Sprintf("clique(%d)", n), graph.Clique(n)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			n, k := 8+r.Intn(16), 2+r.Intn(2)
			return fmt.Sprintf("circulant(%d,%d)", n, k), graph.Circulant(n, k)
		},
		func(r *rand.Rand) (string, *graph.Graph) {
			rows, cols := 2+r.Intn(3), 2+r.Intn(4)
			return fmt.Sprintf("grid(%d,%d)", rows, cols), graph.Grid(rows, cols)
		},
	}

	// Variable-size traffic: payloads of 1..24 bytes (8..192 bits), drawn
	// from each node's private RNG, so a budget in the low hundreds of bits
	// straddles the size distribution — some trials pass, some violate, and
	// which node violates first is seed-determined.
	sizedLoad := func(rounds int) Protocol {
		return func(rt congest.Runtime) {
			acc := uint64(rt.ID())
			for r := 0; r < rounds; r++ {
				out := rt.OutBuf()
				for p := range out {
					m := make(congest.Msg, 1+rt.Rand().Intn(24))
					rt.Rand().Read(m)
					out[p] = m
				}
				in := rt.ExchangePorts(out)
				for _, m := range in {
					acc ^= congest.U64(m) + uint64(len(m))
				}
			}
			rt.SetOutput(acc)
		}
	}

	violations := map[string]int{} // per leg
	for trial := 0; trial < trials; trial++ {
		gname, g := graphFams[rng.Intn(len(graphFams))](rng)
		rounds := 2 + rng.Intn(4)
		// Budget: mostly inside the 8..192-bit payload range (violating with
		// seed-dependent offenders), sometimes 0 (unlimited) or generous.
		var budget int
		switch rng.Intn(4) {
		case 0:
			budget = 0
		case 1:
			budget = 192 + rng.Intn(64)
		default:
			budget = 8 + rng.Intn(200)
		}
		seed := rng.Int63()
		label := fmt.Sprintf("trial %d: %s rounds=%d bw=%d seed=%d", trial, gname, rounds, budget, seed)

		// Every trial runs the copied traffic and the lending family's
		// (lentLoad with 0..24-byte payloads, so some lent payloads are
		// empty and some over budget), each against its own reference run.
		for _, leg := range []struct {
			name  string
			proto Protocol
		}{{"sized", sizedLoad(rounds)}, {"lending", lentLoad(rounds, 0, false)}} {
			run := func(e Engine) (*Result, []byte, error) {
				res, rounds, err := runTraced(e, congest.Config{Graph: g, Seed: seed, Bandwidth: budget, MaxRounds: 1 << 16}, leg.proto)
				tr, jerr := json.Marshal(rounds)
				if jerr != nil {
					t.Fatal(jerr)
				}
				return res, tr, err
			}

			want, wtr, err1 := run(&refEngine{})
			engines := []Engine{EngineStep, NewShardEngine(1), NewShardEngine(2),
				NewShardEngine(runtime.GOMAXPROCS(0)), NewShardEngine(64)}
			if err1 != nil {
				if !errors.Is(err1, congest.ErrBandwidthExceeded) {
					t.Fatalf("%s %s: unexpected error class: %v", label, leg.name, err1)
				}
				violations[leg.name]++
				for _, e := range engines {
					_, _, err2 := run(e)
					if err2 == nil || err2.Error() != err1.Error() {
						t.Fatalf("%s %s: %s error %q, want %q", label, leg.name, e.Name(), err2, err1)
					}
				}
				continue
			}
			wout := fmt.Sprintf("%#v", want.Outputs)
			for _, e := range engines {
				res, trb, err2 := run(e)
				if err2 != nil {
					t.Fatalf("%s %s: %s failed where the reference passed: %v", label, leg.name, e.Name(), err2)
				}
				if res.Stats != want.Stats {
					t.Fatalf("%s %s: stats differ on %s:\n reference %+v\n engine    %+v",
						label, leg.name, e.Name(), want.Stats, res.Stats)
				}
				if out := fmt.Sprintf("%#v", res.Outputs); out != wout {
					t.Fatalf("%s %s: outputs differ on %s:\n reference %s\n engine    %s",
						label, leg.name, e.Name(), wout, out)
				}
				if string(trb) != string(wtr) {
					t.Fatalf("%s %s: traces differ on %s", label, leg.name, e.Name())
				}
			}
		}
	}
	for _, leg := range []string{"sized", "lending"} {
		if violations[leg] == 0 {
			t.Fatalf("%s corpus produced no bandwidth violations; budgets no longer straddle the size distribution", leg)
		}
	}
}

// declaredBudget lies about the budget of the adversary it wraps, so a run
// aborts on a budget verdict. Unwrap hides it behind a second wrapper when
// the case wants the engines to find the budget through Unwrap.
type declaredBudget struct {
	congest.Adversary
	perRound, total int
}

func (d declaredBudget) PerRoundEdges() int   { return d.perRound }
func (d declaredBudget) TotalEdgeRounds() int { return d.total }

type unwrapping struct{ inner congest.Adversary }

func (u unwrapping) Intercept(round int, tr *congest.RoundTraffic) { u.inner.Intercept(round, tr) }
func (u unwrapping) Unwrap() any                                   { return u.inner }

// TestEngineAbortsMatchReference is the abort leg of the cross-engine
// contract: every way a run can fail at the round barrier — the round
// limit, a map send to a non-neighbour, a port outbox longer than the
// degree, the per-round and total budget verdicts (strictly exceeding,
// per-round checked first, budgets found through Unwrap), and an adversary
// injection on a non-edge (counted against the budget first) — must fail
// identically, to the byte, on the reference simulator and on every engine.
func TestEngineAbortsMatchReference(t *testing.T) {
	g := graph.Circulant(10, 2)
	flip := func(f int) congest.Adversary {
		return adversary.NewMobileByzantine(g, f, 3, adversary.SelectRandom, adversary.CorruptFlip)
	}
	forever := func(rt congest.Runtime) {
		for {
			rt.Exchange(nil)
		}
	}
	badSend := func(rt congest.Runtime) {
		out := map[graph.NodeID]congest.Msg{}
		if rt.ID() >= 3 {
			out[rt.ID()-3] = congest.Msg{1} // not a circulant(10,2) neighbour
			out[0] = congest.Msg{2}
		}
		rt.Exchange(out)
	}
	longOutbox := func(rt congest.Runtime) {
		rt.ExchangePorts(make([]congest.Msg, rt.Degree()+int(rt.ID())%2))
	}
	flood := algorithms.FloodMax(12)
	// Two non-edges of circulant(10,2) around one edge, the smaller
	// offender second: the injections count against the budget, and within
	// it the run aborts naming (0,5).
	nonEdge := func() congest.Adversary {
		sel := adversary.SelectFixed([]graph.Edge{graph.NewEdge(3, 8), graph.NewEdge(0, 5), graph.NewEdge(1, 2)})
		return adversary.NewMobileByzantine(g, 3, 3, sel, adversary.CorruptInject)
	}
	cases := []struct {
		name  string
		cfg   congest.Config
		proto Protocol
		want  string // substring of the expected error
	}{
		{"round-limit", congest.Config{MaxRounds: 7}, forever, "round limit exceeded (limit 7)"},
		{"non-neighbor", congest.Config{}, badSend, "sent to non-neighbor"},
		{"long-outbox", congest.Config{}, longOutbox, "sent on 5 ports, degree 4"},
		{"per-round", congest.Config{Adversary: declaredBudget{flip(3), 2, 1000}}, flood, "edges touched in round 0, budget 2"},
		{"per-round-before-total", congest.Config{Adversary: declaredBudget{flip(3), 2, 1}}, flood, "edges touched in round 0, budget 2"},
		{"total", congest.Config{Adversary: declaredBudget{flip(2), 2, 5}}, flood, "total edge-rounds, budget 5"},
		{"total-exact", congest.Config{Adversary: declaredBudget{flip(1), 1, 12}}, flood, ""},
		{"unwrap", congest.Config{Adversary: unwrapping{declaredBudget{flip(3), 1, 1000}}}, flood, "edges touched in round 0, budget 1"},
		{"non-edge", congest.Config{Adversary: nonEdge()}, flood, "adversary injected on non-edge (0,5)"},
		{"non-edge-over-budget", congest.Config{Adversary: declaredBudget{nonEdge(), 2, 1000}}, flood, "3 edges touched in round 0, budget 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Graph, c.cfg.Seed = g, 9
			ref := &refEngine{}
			want, err1 := ref.Run(c.cfg, c.proto)
			switch {
			case c.want == "" && err1 != nil:
				t.Fatalf("reference failed: %v", err1)
			case c.want != "" && (err1 == nil || !strings.Contains(err1.Error(), c.want)):
				t.Fatalf("reference error %v, want one containing %q", err1, c.want)
			case c.want == "" && want.Stats.CorruptedEdgeRounds != c.cfg.Adversary.(declaredBudget).total:
				t.Fatalf("reference spent %d edge-rounds, want exactly the budget", want.Stats.CorruptedEdgeRounds)
			}
			for _, e := range []Engine{EngineStep, NewShardEngine(3)} {
				got, err2 := e.Run(c.cfg, c.proto)
				if fmt.Sprint(err1) != fmt.Sprint(err2) {
					t.Fatalf("%s error %v, reference %v", e.Name(), err2, err1)
				}
				if err1 == nil && got.Stats != want.Stats {
					t.Fatalf("%s stats %+v, reference %+v", e.Name(), got.Stats, want.Stats)
				}
			}
		})
	}
}
