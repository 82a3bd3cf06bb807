package flagged

import "mobilecongest/internal/congest"

// forwardLent lends an outbox that forwards the previous round's inbox: the
// engine would deliver the received views by reference, as if the sender
// owned them.
func forwardLent(pr congest.PortRuntime, rounds int) {
	out := pr.OutBuf()
	var in []congest.Msg
	for r := 0; r < rounds; r++ {
		for p, m := range in {
			out[p] = m // want `received view stored in lent outbox out`
		}
		pr.LendOut()
		in = pr.ExchangePorts(out)
	}
}

// relayTrafficLent lends a RoundTraffic payload, a view into the engine's
// round arena.
func relayTrafficLent(pr congest.PortRuntime, tr *congest.RoundTraffic) {
	out := pr.OutBuf()
	out[0] = tr.Get(0) // want `received view stored in lent outbox out`
	pr.LendOut()
	pr.ExchangePorts(out)
}
