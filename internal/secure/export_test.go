package secure

import "sync/atomic"

// CountExtractions counts the streams the key phase extracts, memo hits
// excluded, until the returned stop is called, which reports the count.
// The count is process-wide: callers must not run in parallel with other
// tests that extract keys.
func CountExtractions() (stop func() int64) {
	var n atomic.Int64
	onExtract = func() { n.Add(1) }
	return func() int64 {
		onExtract = nil
		return n.Load()
	}
}
