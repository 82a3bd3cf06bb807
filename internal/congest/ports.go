package congest

import (
	"sort"

	"mobilecongest/internal/graph"
)

// The port-indexed node runtime: a node's ports are its neighbours in
// ascending ID order, matching both Neighbors() and the CSR edgeLayout, so
// port i of node u addresses the directed-edge slot rowStart[u]+i. Protocols
// move their round through Runtime.ExchangePorts and reusable []Msg slices
// backed by the run's packed round arenas — the fault-free hot path
// allocates no per-round maps at all. The map Exchange survives as a compat
// wrapper over ports (see Runtime).

// portIndex finds v in the ascending neighbour list (nodeCore.Port and the
// map compat fold).
func portIndex(neighbors []graph.NodeID, v graph.NodeID) int {
	i := sort.Search(len(neighbors), func(i int) bool { return neighbors[i] >= v })
	if i == len(neighbors) || neighbors[i] != v {
		return -1
	}
	return i
}
