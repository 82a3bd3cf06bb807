// Package slabretain_test runs roundview's retained check, which replaced
// the slabretain analyzer — round views stored into a field or a package
// variable, or captured by an escaping closure — under the test name the
// analyzer had. The fixtures are roundview's own; TestRoundview runs them
// together with the other checks.
package slabretain_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestSlabretain(t *testing.T) {
	analysistest.Run(t, "../roundview/testdata/src/retained", roundview.Analyzer, "flagged", "clean")
}
