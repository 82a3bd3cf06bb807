package flagged

import mc "mobilecongest"

// upgrade reaches for the deprecated aliases that exist only for bench/.
func upgrade(rt mc.Runtime) mc.PortRuntime { // want `deprecated mobilecongest.PortRuntime`
	return mc.Ports(rt) // want `deprecated mobilecongest.Ports`
}
