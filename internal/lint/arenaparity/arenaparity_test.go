// Package arenaparity_test holds the fixtures of roundview's carried check,
// which replaced the arenaparity analyzer: arena views that outlive a loop
// calling ExchangePorts.
package arenaparity_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestArenaparity(t *testing.T) {
	analysistest.Run(t, "testdata/src", roundview.Analyzer, "flagged", "clean")
}
