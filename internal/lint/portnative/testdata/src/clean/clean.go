// Fixture: slot/port-native code, plus a reasoned suppression on the one
// deliberate compat call.
package clean

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

func portExchange(rt congest.Runtime, m congest.Msg) congest.Msg {
	out := rt.OutBuf()
	for p := 0; p < rt.Degree(); p++ {
		out[p] = m
	}
	in := rt.ExchangePorts(out)
	return in[0]
}

func deliberateAbort(rt congest.Runtime, to graph.NodeID) {
	//lint:ignore portnative abort path: the map Exchange is the canonical way to trigger the engine's non-neighbor error
	rt.Exchange(map[graph.NodeID]congest.Msg{to: nil})
	panic("unreachable")
}
