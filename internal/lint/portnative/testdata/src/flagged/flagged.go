// Fixture: internal code reaching for the legacy map compat wrappers.
package flagged

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

func mapExchange(rt congest.Runtime, to graph.NodeID, m congest.Msg) congest.Msg {
	in := rt.Exchange(map[graph.NodeID]congest.Msg{to: m}) // want `legacy map Exchange compat wrapper`
	return in[to]
}
