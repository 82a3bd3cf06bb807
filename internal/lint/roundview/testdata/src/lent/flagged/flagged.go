package flagged

import "mobilecongest/internal/congest"

// forwardLent lends an outbox that forwards the previous round's inbox: the
// engine would deliver the received views by reference, as if the sender
// owned them.
func forwardLent(rt congest.Runtime, rounds int) {
	out := rt.OutBuf()
	var in []congest.Msg
	for r := 0; r < rounds; r++ {
		for p, m := range in {
			out[p] = m // want `received view stored in lent outbox out`
		}
		rt.LendOut()
		in = rt.ExchangePorts(out)
	}
}

// relayTrafficLent lends a RoundTraffic payload, a view into the engine's
// round arena.
func relayTrafficLent(rt congest.Runtime, tr *congest.RoundTraffic) {
	out := rt.OutBuf()
	out[0] = tr.Get(0) // want `received view stored in lent outbox out`
	rt.LendOut()
	rt.ExchangePorts(out)
}
