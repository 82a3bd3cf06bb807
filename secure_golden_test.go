package mobilecongest

import (
	"encoding/json"
	"fmt"
	"testing"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/secure"
)

const secureGoldenFile = "testdata/secure_compilers_golden.txt"

// secureGoldenRun runs one secure-compiler cell on the step engine with a
// trace observer and renders it through equivalenceGoldenLine: Stats plus
// digests of the outputs, the full traffic and the eavesdropper's view.
// Every Phase-2 message is ciphertext, so the traffic digest pins every key
// byte both endpoints derived; outputs alone would not, since two endpoints
// sharing the same wrong key still decrypt correctly.
func secureGoldenRun(label string, seed int64, adv congest.Adversary, opts ...ScenarioOption) string {
	tr := NewTraceObserver()
	opts = append(opts, WithSeed(seed), WithAdversary(adv), WithObserver(tr), WithEngineName("step"))
	res, err := NewScenario(opts...).Run()
	if err != nil {
		return fmt.Sprintf("%s error=%q", label, err.Error())
	}
	trace, err := json.Marshal(tr.Rounds())
	if err != nil {
		panic(err)
	}
	return equivalenceGoldenLine(label, res.Stats, fmt.Sprintf("%#v", res.Outputs), trace, adv)
}

// registrySecureLine runs the registered secure-broadcast cell exactly as
// WithProtocolName/WithAdversaryName would (same protocol and adversary
// seeds, protocol F = f also when the adversary is "none"), keeping the
// adversary instance so its view can be digested.
func registrySecureLine(topo string, n, k int, adv string, f int, seed int64) string {
	label := fmt.Sprintf("secure-broadcast %s%d k=%d %s f=%d seed=%d", topo, n, k, adv, f, seed)
	g, err := BuildTopology(topo, n, k)
	if err != nil {
		return fmt.Sprintf("%s error=%q", label, err.Error())
	}
	proto, shared, err := BuildProtocol("secure-broadcast", g, ProtoParams{Seed: seed ^ protoSeedMix, F: f})
	if err != nil {
		return fmt.Sprintf("%s error=%q", label, err.Error())
	}
	a, err := BuildAdversary(adv, g, f, seed^advSeedMix)
	if err != nil {
		return fmt.Sprintf("%s error=%q", label, err.Error())
	}
	return secureGoldenRun(label, seed, a, WithGraph(g), WithProtocol(proto), WithShared(shared))
}

// csFloodPayload floods a 2-byte value from node 0 for r rounds: a payload
// for the congestion-sensitive compiler, whose messages are at most 2 bytes.
func csFloodPayload(r int) Protocol {
	return func(rt congest.Runtime) {
		var have uint16
		if rt.ID() == 0 {
			have = 0xBEEF
		}
		for i := 0; i < r; i++ {
			out := rt.OutBuf()
			if have != 0 {
				for p := range out {
					out[p] = congest.Msg{byte(have >> 8), byte(have)}
				}
			}
			for _, m := range rt.ExchangePorts(out) {
				if len(m) == 2 && have == 0 {
					have = uint16(m[0])<<8 | uint16(m[1])
				}
			}
		}
		rt.SetOutput(have)
	}
}

// TestSecureCompilersGolden pins the key phase of the Theorem 1.2 compiler
// and the Appendix A.2-A.3 constructions built on it: the registered
// secure-broadcast cells, MobileSecureBroadcast, and the congestion-sensitive
// compiler, each under a mobile eavesdropper (and fault-free for the
// registry cells). The extractor and the key pools may be made faster,
// never observably different. Regenerate with -update-golden only for a
// deliberate protocol change.
func TestSecureCompilersGolden(t *testing.T) {
	var got []string
	for _, c := range []struct {
		topo string
		n, k int
	}{{"circulant", 128, 4}, {"circulant", 64, 3}, {"clique", 16, 0}} {
		for _, adv := range []string{"eavesdrop", "none"} {
			for seed := int64(1); seed <= 4; seed++ {
				got = append(got, registrySecureLine(c.topo, c.n, c.k, adv, 2, seed))
			}
		}
	}

	// Mobile-secure broadcast (T4's setting): k = f*3+1 shares over a
	// circulant, and a clique whose trees share edges.
	for _, f := range []int{1, 2} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, c := range []struct {
				name   string
				g      *graph.Graph
				source graph.NodeID
			}{{"circulant(14,3)", graph.Circulant(14, 3), 13}, {"clique(8)", graph.Clique(8), 0}} {
				sh := secure.NewBroadcastShared(c.g, c.source, secure.MinSharesFor(f, 3), 8)
				inputs := make([][]byte, c.g.N())
				inputs[c.source] = congest.PutU64(nil, 0xCAFE+uint64(seed))
				label := fmt.Sprintf("mobile-secure-broadcast %s f=%d seed=%d", c.name, f, seed)
				got = append(got, secureGoldenRun(label, seed, adversary.NewMobileEavesdropper(c.g, f, seed),
					WithGraph(c.g), WithProtocol(secure.MobileSecureBroadcast(f)), WithShared(sh), WithInputs(inputs)))
			}
		}
	}

	// Congestion-sensitive compiler (T5's setting), default and explicit
	// key slack.
	g := graph.Circulant(10, 2)
	sh := secure.NewBroadcastShared(g, 9, 4, 5)
	for _, cfg := range []secure.CSConfig{{R: 3, F: 1, Cong: 3}, {R: 5, F: 1, Cong: 5}, {R: 4, F: 2, Cong: 2, KeySlack: 3}} {
		for seed := int64(1); seed <= 2; seed++ {
			label := fmt.Sprintf("congestion-sensitive circulant(10,2) r=%d f=%d cong=%d slack=%d seed=%d", cfg.R, cfg.F, cfg.Cong, cfg.KeySlack, seed)
			got = append(got, secureGoldenRun(label, seed, adversary.NewMobileEavesdropper(g, cfg.F, seed),
				WithGraph(g), WithProtocol(secure.CompileCongestionSensitive(csFloodPayload(cfg.R), cfg)), WithShared(sh)))
		}
	}

	checkGolden(t, secureGoldenFile, got)
}
