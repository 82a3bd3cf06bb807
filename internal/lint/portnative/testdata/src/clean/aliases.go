package clean

import mc "mobilecongest"

// lastPort programs against the root package's Runtime, which carries the
// port methods itself.
func lastPort(rt mc.Runtime) mc.NodeID {
	return rt.Neighbor(rt.Degree() - 1)
}
