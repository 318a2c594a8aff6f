package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface runs the built binary: the removed per-request JSONL sink
// and stale-replica flags must be rejected by the flag parser rather than
// accepted and ignored, and -h must still list the Chrome trace flag. Flag parsing precedes
// pre-training, and the unknown dataset stops a binary that still accepted
// either flag before it trains, so no invocation trains.
func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cascade-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "-trace-chrome"},
		{[]string{"-trace", "x", "-dataset", "none"}, 2, "flag provided but not defined: -trace"},
		{[]string{"-stale-ok", "-dataset", "none"}, 2, "flag provided but not defined: -stale-ok"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: exit %d, want %d with %q in output:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}
