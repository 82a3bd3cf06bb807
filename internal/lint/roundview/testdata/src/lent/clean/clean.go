package clean

import "mobilecongest/internal/congest"

// lendOwned lends payloads the node owns: two buffer sets in turn, each
// filled from a byte copy of the inbox, so a set is rewritten only after
// the exchange following the one that lent it.
func lendOwned(rt congest.Runtime, rounds, deg int) {
	var sets [2][]congest.Msg
	sets[0], sets[1] = make([]congest.Msg, deg), make([]congest.Msg, deg)
	var in []congest.Msg
	for r := 0; r < rounds; r++ {
		own := sets[r%2]
		out := rt.OutBuf()
		for p, m := range in {
			own[p] = append(own[p][:0], m...) // the bytes are copied out of the view
			out[p] = own[p]
		}
		rt.LendOut()
		in = rt.ExchangePorts(out)
	}
}
