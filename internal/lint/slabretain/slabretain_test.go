// Package slabretain_test holds the fixtures of roundview's retained check,
// which replaced the slabretain analyzer: round views stored into a field or
// a package variable, or captured by an escaping closure.
package slabretain_test

import (
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestSlabretain(t *testing.T) {
	analysistest.Run(t, "testdata/src", roundview.Analyzer, "flagged", "clean")
}
