// Fixture: the sanctioned view lifetimes — inbox reuse via direct
// acquisition assignment, same-round forwarding into the outbox, byte-copy
// retention via ellipsis append, accumulation confined to a round-body
// local, and a reasoned suppression for a harness that copies in time.
package clean

import "mobilecongest/internal/congest"

func relay(rt congest.Runtime, rounds, deg int) {
	out := make([]congest.Msg, deg)
	keep := make(congest.Msg, 0, 64)
	var in []congest.Msg
	for r := 0; r < rounds; r++ {
		in = rt.ExchangePorts(out) // canonical reuse: overwritten every round
		for p := range in {
			out[p] = in[(p+1)%len(in)] // forwarding: parity keeps views valid through collection
		}
		keep = append(keep[:0], in[0]...) // ellipsis spread copies the bytes out of the arena
		// Accumulation across a non-round inner loop stays inside the round body.
		var longest congest.Msg
		for _, m := range in {
			if len(m) > len(longest) {
				longest = m
			}
		}
		_ = longest
	}
	_ = keep
}

// probe samples the final round's view; the harness copies it before the
// next Run reuses the arena, so the carry is suppressed with the reason.
func probe(rt congest.Runtime, rounds int) congest.Msg {
	out := make([]congest.Msg, 1)
	var last congest.Msg
	for r := 0; r < rounds; r++ {
		in := rt.ExchangePorts(out)
		//lint:ignore roundview harness copies the view before the engine advances
		last = in[0]
	}
	return last
}
