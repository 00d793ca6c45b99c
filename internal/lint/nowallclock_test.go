package lint_test

import (
	"testing"

	"proxcensus/internal/lint"
	"proxcensus/internal/lint/linttest"
)

func TestNoWallClock(t *testing.T) {
	linttest.Run(t, "testdata/src/nowallclock", lint.NoWallClock)
}

func TestNoWallClockScope(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/ba":           true,
		"internal/proxcensus":   true,
		"internal/sim":          true,
		"internal/coin":         true,
		"internal/transport":    false,
		"internal/service":      false,
		"examples/tcpcluster":   false,
		"examples":              false,
		"cmd/proxlab":           false,
		"internal/transport/x":  false,
		"internal/transporters": true, // prefix match must respect path boundaries
	} {
		if got := lint.NoWallClock.Scope(rel); got != want {
			t.Errorf("NoWallClock.Scope(%q) = %v, want %v", rel, got, want)
		}
	}
}
