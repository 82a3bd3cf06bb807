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

// bufferFlood is a 2-byte flood whose node folds every inbox into a running
// hash. With reuse set, each node encodes every round into one buffer it
// allocates once, sends it on all ports, and scribbles over it as soon as
// ExchangePorts returns — before reading the inbox — which the ownership
// contract allows. Without reuse it sends a fresh payload each round. Any
// layer that keeps a reference to a sent payload past the exchange (an
// engine that does not copy at collection, a compiler that reads a payload
// message after its simulated round) makes the two forms diverge.
func bufferFlood(rounds int, reuse bool) Protocol {
	return func(rt congest.Runtime) {
		pr := congest.Ports(rt)
		best := uint16(rt.ID()) * 37 % 1000
		acc := uint64(rt.ID())
		buf := make(congest.Msg, 2)
		for r := 0; r < rounds; r++ {
			m := buf
			if !reuse {
				m = make(congest.Msg, 2)
			}
			m[0], m[1] = byte(best>>8), byte(best)
			out := pr.OutBuf()
			for p := range out {
				out[p] = m
			}
			in := pr.ExchangePorts(out)
			if reuse {
				m[0], m[1] = 0xde, 0xad
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
// rely on: a sender may overwrite a sent payload once the exchange returns.
// The buffer-reusing flood must give the same Result as its copy-per-round
// twin on every engine and on the reference simulator, bare and under every
// compiler boundary that wraps a payload's exchange in a WrappedRuntime.
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
				run := func(reuse bool) *congest.Result {
					t.Helper()
					cfg := congest.Config{Graph: c.g, Seed: 7, Shared: c.shared, MaxRounds: 1 << 23}
					if c.adv != nil {
						cfg.Adversary = c.adv(c.g)
					}
					res, err := e.Run(cfg, c.compile(bufferFlood(r, reuse)))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want, got := run(false), run(true)
				if got.Stats != want.Stats {
					t.Fatalf("buffer-reusing payload stats %+v != copy-per-round %+v", got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Outputs, want.Outputs) {
					t.Fatalf("buffer-reusing payload outputs %v != copy-per-round %v", got.Outputs, want.Outputs)
				}
			})
		}
	}
}
