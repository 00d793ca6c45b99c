package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadInput: inputs the simulator would otherwise run with
// a silently substituted default fail pre-flight with a pointed error.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name, coin, want string
	}{
		{"misspelt coin", "thresold", `unknown -coin "thresold"`},
		{"capitalised coin", "Threshold", `unknown -coin "Threshold"`},
		{"empty coin", "", `unknown -coin ""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run("oneshot", 7, 2, 4, "", "passive", tc.coin, 1, false, false, time.Second)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
