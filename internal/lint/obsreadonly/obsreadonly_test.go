// Package obsreadonly_test runs roundview's written check, which replaced
// the obsreadonly analyzer — stores, in-place sorts, copies and other writes
// through read-only round data — under the test name the analyzer had. The
// fixtures are roundview's own; TestRoundview runs them together with the
// other checks.
package obsreadonly_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestObsreadonly(t *testing.T) {
	analysistest.Run(t, "../roundview/testdata/src/written", roundview.Analyzer, "flagged", "clean")
}
