package analysis_test

import (
	"testing"

	"anonurb/internal/analysis"
	"anonurb/internal/analysis/analysistest"
)

func TestBodyWrite(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.BodyWrite, "bodywrite/wire", "bodywrite/user")
}
