// secureaggregate runs a sensor-style aggregation under the
// congestion-sensitive compiler of Theorem 1.3: nodes hold private 2-byte
// readings and flood the maximum; a mobile eavesdropper watches f fresh
// edges every round but sees only uniform ciphertext — it cannot even tell
// which edges carried real messages (traffic-pattern hiding).
package main

import (
	"fmt"
	"os"

	mc "mobilecongest"

	"mobilecongest/internal/adversary"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/secure"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secureaggregate:", err)
		os.Exit(1)
	}
}

// maxFlood floods the maximum 2-byte reading for r rounds, sending only
// when the local maximum improves — a low-congestion payload, exactly what
// Theorem 1.3 optimizes for. Written against the port-native runtime: the
// outbox is the runtime's reusable port buffer and one message is shared
// across all ports.
func maxFlood(r int) congest.Protocol {
	return func(rt congest.Runtime) {
		reading := uint16(congest.U64(rt.Input()))
		best := reading
		improved := true
		for i := 0; i < r; i++ {
			out := rt.OutBuf()
			if improved {
				m := congest.Msg{byte(best >> 8), byte(best)}
				for p := range out {
					out[p] = m
				}
			}
			in := rt.ExchangePorts(out)
			improved = false
			for _, m := range in {
				if len(m) == 2 {
					v := uint16(m[0])<<8 | uint16(m[1])
					if v > best {
						best = v
						improved = true
					}
				}
			}
		}
		rt.SetOutput(best)
	}
}

func run() error {
	g := graph.Circulant(12, 2)
	r := g.Diameter() + 1
	root := graph.NodeID(11)
	sh := secure.NewBroadcastShared(g, root, 4, 6)

	inputs := make([][]byte, g.N())
	want := uint16(0)
	for i := range inputs {
		v := uint16(1000 + 137*i%4096)
		if v > want {
			want = v
		}
		inputs[i] = congest.PutU64(nil, uint64(v))
	}
	fmt.Printf("readings on %d nodes; true max %d\n", g.N(), want)

	eve := adversary.NewMobileEavesdropper(g, 2, 17)
	res, err := mc.NewScenario(
		mc.WithGraph(g),
		mc.WithSeed(17),
		mc.WithInputs(inputs),
		mc.WithShared(sh),
		mc.WithAdversary(eve),
		mc.WithProtocol(secure.CompileCongestionSensitive(maxFlood(r), secure.CSConfig{R: r, F: 2, Cong: r})),
	).Run()
	if err != nil {
		return err
	}
	for i, o := range res.Outputs {
		if o.(uint16) != want {
			return fmt.Errorf("node %d aggregated %v, want %d", i, o, want)
		}
	}
	fmt.Printf("compiled aggregation: %d rounds, all nodes got %d\n", res.Stats.Rounds, want)
	fmt.Printf("eavesdropper observed %d ciphertexts; every edge carried equal-size traffic each round,\n", len(eve.View()))
	fmt.Println("so neither contents nor the traffic pattern leaked (Theorem 1.3's perfect security)")
	return nil
}
