package resilient

import "sync/atomic"

// CountDecodes counts the received words ECCSafeBroadcast decodes, memo
// hits excluded, until the returned stop is called, which reports the
// count. The count is process-wide: callers must not run in parallel with
// other tests that decode.
func CountDecodes() (stop func() int64) {
	var n atomic.Int64
	onDecode = func() { n.Add(1) }
	return func() int64 {
		onDecode = nil
		return n.Load()
	}
}
