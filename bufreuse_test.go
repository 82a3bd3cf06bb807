package mobilecongest

import (
	"reflect"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/ccpath"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/cyclecover"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/secure"
)

// payloadMode is how bufferFlood's nodes own the payloads they send.
type payloadMode int

const (
	// freshPayload sends a newly allocated payload every round.
	freshPayload payloadMode = iota
	// reusedPayload encodes every round into one buffer and scribbles over
	// it as soon as ExchangePorts returns, which the copy path allows.
	reusedPayload
	// lentPayload encodes into two buffers in turn and lends every
	// exchange; right after each exchange returns it scribbles over the
	// buffer lent at the exchange before, which the lending contract allows.
	lentPayload
	// brokenLend lends one buffer and scribbles over it right after its own
	// exchange returns, while receivers may still read it: a breach of the
	// lending contract that only the by-reference path can show.
	brokenLend
)

// bufferFlood is a 2-byte flood whose node folds every inbox into a running
// hash, sending its payloads as mode says. Each scribble happens before the
// node reads its inbox. Any layer that keeps a reference to a sent payload
// longer than the mode allows (an engine that does not copy an unlent
// payload, a compiler that reads a payload message after its simulated
// round, a lent buffer delivered after its lender moved on) makes the form
// diverge from freshPayload.
func bufferFlood(rounds int, mode payloadMode) Protocol {
	return func(rt congest.Runtime) {
		pr := congest.Ports(rt)
		best := uint16(rt.ID()) * 37 % 1000
		acc := uint64(rt.ID())
		bufs := [2]congest.Msg{make(congest.Msg, 2), make(congest.Msg, 2)}
		for r := 0; r < rounds; r++ {
			m := bufs[0]
			switch mode {
			case freshPayload:
				m = make(congest.Msg, 2)
			case lentPayload:
				m = bufs[r%2]
			}
			m[0], m[1] = byte(best>>8), byte(best)
			out := pr.OutBuf()
			for p := range out {
				out[p] = m
			}
			if mode == lentPayload || mode == brokenLend {
				pr.LendOut()
			}
			in := pr.ExchangePorts(out)
			switch {
			case mode == reusedPayload || mode == brokenLend:
				m[0], m[1] = 0xde, 0xad
			case mode == lentPayload && r > 0:
				prev := bufs[(r-1)%2]
				prev[0], prev[1] = 0xde, 0xad
			}
			for p, mm := range in {
				if len(mm) != 2 {
					acc = acc*31 + uint64(p)
					continue
				}
				v := uint16(mm[0])<<8 | uint16(mm[1])
				acc = acc*31 + uint64(v)
				if v > best {
					best = v
				}
			}
		}
		rt.SetOutput(acc)
	}
}

// TestPayloadBufferReuseContract pins the PortRuntime.ExchangePorts
// ownership rule that the algorithms package's per-node payload buffers
// rely on — a sender may overwrite a sent payload once the exchange
// returns — and its lending form, which rsim's frames rely on: a lent
// payload may be overwritten once the exchange after it returns. The
// buffer-reusing and the lending flood must give the same Result as their
// copy-per-round twin on every engine and on the reference simulator, bare
// and under every compiler boundary that wraps a payload's exchange in a
// WrappedRuntime (where lending is a no-op).
func TestPayloadBufferReuseContract(t *testing.T) {
	const r = 3
	circ := graph.Circulant(10, 2)
	cover, err := cyclecover.Build(circ, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		compile func(payload Protocol) Protocol
		shared  any
		adv     func(g *graph.Graph) congest.Adversary
	}{
		{name: "bare", g: circ, compile: func(p Protocol) Protocol { return p }},
		{name: "bare-flip", g: circ, compile: func(p Protocol) Protocol { return p },
			adv: func(g *graph.Graph) congest.Adversary {
				return adversary.NewMobileByzantine(g, 2, 5, adversary.SelectRandom, adversary.CorruptFlip)
			}},
		{name: "resilient", g: graph.Clique(8),
			compile: func(p Protocol) Protocol {
				return resilient.Compile(p, resilient.Config{Mode: resilient.SparseMode, F: 1})
			},
			shared: resilient.CliqueShared(8),
			adv: func(g *graph.Graph) congest.Adversary {
				return adversary.NewMobileByzantine(g, 1, 5, adversary.SelectRandom, adversary.CorruptFlip)
			}},
		{name: "ccpath", g: circ,
			compile: func(p Protocol) Protocol { return ccpath.Compile(p, 1) },
			shared:  ccpath.NewShared(cover)},
		{name: "secure-static-to-mobile", g: circ,
			compile: func(p Protocol) Protocol { return secure.StaticToMobile(p, r, 4) }},
		{name: "secure-congestion-sensitive", g: circ,
			compile: func(p Protocol) Protocol {
				return secure.CompileCongestionSensitive(p, secure.CSConfig{R: r, F: 1, Cong: r})
			},
			shared: secure.NewBroadcastShared(circ, 9, 4, 5)},
	}
	// The "goroutine" leg runs the reference simulator, which gives every
	// node a goroutine of its own and copies every payload at collection.
	engines := []struct {
		name string
		e    Engine
	}{
		{"goroutine", &refEngine{}},
		{"step", EngineStep},
		{"shard", NewShardEngine(2)},
	}
	for _, c := range cases {
		for _, leg := range engines {
			e := leg.e
			t.Run(c.name+"/"+leg.name, func(t *testing.T) {
				run := func(mode payloadMode) *congest.Result {
					t.Helper()
					cfg := congest.Config{Graph: c.g, Seed: 7, Shared: c.shared, MaxRounds: 1 << 23}
					if c.adv != nil {
						cfg.Adversary = c.adv(c.g)
					}
					res, err := e.Run(cfg, c.compile(bufferFlood(r, mode)))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := run(freshPayload)
				for _, form := range []struct {
					name string
					mode payloadMode
				}{{"buffer-reusing", reusedPayload}, {"lending", lentPayload}} {
					got := run(form.mode)
					if got.Stats != want.Stats {
						t.Fatalf("%s payload stats %+v != copy-per-round %+v", form.name, got.Stats, want.Stats)
					}
					if !reflect.DeepEqual(got.Outputs, want.Outputs) {
						t.Fatalf("%s payload outputs %v != copy-per-round %v", form.name, got.Outputs, want.Outputs)
					}
				}
			})
		}
	}
}

// TestBrokenLendDiverges is the negative control of the lending leg: a
// node that scribbles over a lent buffer right after its own exchange
// breaks the contract, and its receivers must see it on the engine, which
// delivers lent payloads by reference. The reference simulator copies every
// payload, so there the breach stays invisible. Were lending a silent copy,
// the lending leg above would prove nothing. The control runs on the
// single-shard engine only: across shards the breach is a data race, which
// is what the race detector reports there (TestLendOutDeliversByReference
// checks the by-reference path at two shards).
func TestBrokenLendDiverges(t *testing.T) {
	const r = 3
	g := graph.Circulant(10, 2)
	run := func(e Engine, mode payloadMode) []any {
		t.Helper()
		res, err := e.Run(congest.Config{Graph: g, Seed: 7}, bufferFlood(r, mode))
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	if !reflect.DeepEqual(run(&refEngine{}, brokenLend), run(&refEngine{}, freshPayload)) {
		t.Fatal("the reference delivered a lent payload by reference; it must copy")
	}
	if reflect.DeepEqual(run(EngineStep, brokenLend), run(EngineStep, freshPayload)) {
		t.Fatal("step: scribbling a lent buffer right after its exchange went unseen; lent payloads are not delivered by reference")
	}
}
