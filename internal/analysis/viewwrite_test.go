package analysis_test

import (
	"testing"

	"anonurb/internal/analysis"
	"anonurb/internal/analysis/analysistest"
)

func TestViewWrite(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ViewWrite, "viewwrite/fd", "viewwrite/user")
}
