// Fixture: randomness flowing from an explicit seed, directly or through a
// kept generator restarted from it, and a reasoned suppression for a
// harness-level wall-clock read.
package clean

import (
	"math/rand"
	"time"

	"mobilecongest/internal/congest"
)

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func restarted(g *congest.SeededRand, seed int64) int {
	return g.Restart(seed).Intn(10)
}

func wallClockTimer() time.Time {
	//lint:ignore detrand wall-clock timing of the whole run never feeds protocol state
	return time.Now()
}
