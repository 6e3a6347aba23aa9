package poolcheck

import (
	"testing"

	"mits/internal/lint"
)

func TestPoolCheck(t *testing.T) {
	lint.RunTest(t, "testdata", Analyzer, "a", "regress")
}
