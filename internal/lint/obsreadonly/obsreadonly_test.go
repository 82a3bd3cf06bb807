// Package obsreadonly_test holds the fixtures of roundview's written check,
// which replaced the obsreadonly analyzer: stores, in-place sorts, copies
// and other writes through read-only round data.
package obsreadonly_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestObsreadonly(t *testing.T) {
	analysistest.Run(t, "testdata/src", roundview.Analyzer, "flagged", "clean")
}
