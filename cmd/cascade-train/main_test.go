package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface runs the built binary: the plain invocation must train and
// validate, and the flags of the removed data-parallel path must be rejected
// by the flag parser rather than accepted and ignored.
func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cascade-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		extra []string
		code  int
		want  string
	}{
		{nil, 0, "validation loss"},
		{[]string{"-replicas", "2"}, 2, "flag provided but not defined: -replicas"},
		{[]string{"-epoch-timeout", "1s"}, 2, "flag provided but not defined: -epoch-timeout"},
		{[]string{"-rejoin"}, 2, "flag provided but not defined: -rejoin"},
	} {
		args := append([]string{"-events", "600", "-epochs", "1"}, tc.extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: exit %d, want %d with %q in output:\n%s", args, code, tc.code, tc.want, out)
		}
	}
}
