package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInput: dealer scenarios the simulator cannot honour
// fail pre-flight with a pointed error, instead of dying inside the
// engine or reporting a run that never released anything.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, t, s, release int
		want             string
	}{
		{"release without an accomplice", 4, 1, 5, 3, "needs -t >= 2, got 1"},
		{"release past the last round", 6, 2, 5, 20, "-release must lie in [1, s-1] = [1, 4]"},
		{"release at the slot count", 6, 2, 5, 5, "-release must lie in [1, s-1] = [1, 4]"},
		{"release before round 1", 6, 2, 5, 0, "-release must lie in [1, s-1] = [1, 4]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.n, tc.t, tc.s, "release", tc.release, 1, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
