// Fixture: arena-backed views escaping their round loop body — carried in a
// loop-external variable, accumulated into a container, and stashed into
// pre-sized slots — through direct binding, derivation, and header-copying
// append.
package flagged

import "mobilecongest/internal/congest"

func carryAcross(rt congest.Runtime, rounds int) congest.Msg {
	out := make([]congest.Msg, 4)
	var prev congest.Msg
	for r := 0; r < rounds; r++ {
		in := rt.ExchangePorts(out)
		m := in[0]
		if len(m) > len(prev) {
			prev = m // want `carried across rounds in prev`
		}
	}
	return prev
}

func accumulate(rt congest.Runtime, rounds int) []congest.Msg {
	out := make([]congest.Msg, 4)
	history := make([]congest.Msg, 0, rounds)
	for r := 0; r < rounds; r++ {
		in := rt.ExchangePorts(out)
		history = append(history, in[0]) // want `carried across rounds in history`
	}
	return history
}

func stashSlots(rt congest.Runtime, rounds int) {
	out := make([]congest.Msg, 4)
	slots := make([]congest.Msg, rounds)
	for r := 0; r < rounds; r++ {
		in := rt.ExchangePorts(out)
		slots[r] = in[1] // want `stored across rounds in slots`
	}
	_ = slots
}

// sniffTraffic retains a RoundTraffic payload view across the round boundary;
// the Get result lives in the same parity arena as the inboxes.
func sniffTraffic(rt congest.Runtime, tr *congest.RoundTraffic, rounds int) {
	out := make([]congest.Msg, 2)
	var heaviest congest.Msg
	for r := 0; r < rounds; r++ {
		rt.ExchangePorts(out)
		m := tr.Get(int32(r))
		if len(m) > len(heaviest) {
			heaviest = m // want `carried across rounds in heaviest`
		}
	}
	_ = heaviest
}
