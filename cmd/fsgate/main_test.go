package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBinary runs bin with args and returns its exit code and combined
// output.
func runBinary(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("running %s: %v", bin, err)
	return 0, ""
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fsgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	if code, out := runBinary(t, bin, "-nosuch"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2:\n%s", code, out)
	}

	// A missing baseline must fail before any leg runs: no candidate
	// replay starts and nothing is archived.
	record := filepath.Join(dir, "candidate")
	code, out := runBinary(t, bin, "-baseline", filepath.Join(dir, "missing.jsonl"), "-record", record)
	if code == 0 || !strings.Contains(out, "loading baseline") {
		t.Errorf("missing baseline: exit %d, want non-zero with a loading error:\n%s", code, out)
	}
	if strings.Contains(out, "replaying candidate legs") {
		t.Errorf("missing baseline: candidate legs started:\n%s", out)
	}
	if _, err := os.Stat(record); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing baseline: candidate archive %s exists (stat: %v)", record, err)
	}
}
