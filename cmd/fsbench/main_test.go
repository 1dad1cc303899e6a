package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// buildBinary builds this command into a test temporary directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fsbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

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

// writeTrace writes a two-record FSBT v2 trace and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.fsbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Records: []trace.Record{
		{At: 0, Kind: workload.OpCreate, Path: "/a"},
		{At: 1000, Kind: workload.OpStat, Path: "/a"},
	}}
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExitCodes(t *testing.T) {
	bin := buildBinary(t)
	tiny := writeTrace(t)
	// quick keeps the cases that do reach a run short.
	quick := []string{"-runs", "1", "-duration", "2s", "-window", "1s", "-hist=false", "-progress=false"}
	for _, tc := range []struct {
		name string
		args []string
		code int // -1: any non-zero code
		want string
	}{
		{"unknown-flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
		{"ram-negative", []string{"-ram", "-5"}, 2, "-ram must be > 0"},
		{"ram-zero", []string{"-ram", "0"}, 2, "-ram must be > 0"},
		{"os-reserve-negative", []string{"-os-reserve", "-1"}, 2, "-os-reserve must be between 0 and -ram"},
		{"os-reserve-above-ram", []string{"-ram", "64", "-os-reserve", "65"}, 2, "-os-reserve must be between 0 and -ram"},
		{"jitter-negative", []string{"-jitter", "-3"}, 2, "-jitter must be >= 0"},
		{"l2-negative", []string{"-l2", "-4"}, 2, "-l2 must be >= 0"},
		{"nvme-channels-negative", []string{"-nvme-channels", "-2"}, 2, "-nvme-channels must be >= 0"},
		{"queue-depth-negative", []string{"-queue-depth", "-4"}, 2, "-queue-depth must be >= 0"},
		{"runs-zero", []string{"-runs", "0"}, 2, "-runs must be >= 1"},
		{"shards-negative", []string{"-shards", "-3"}, 2, "-shards must be >= 1"},
		{"replay-tenants-zero", []string{"-replay", tiny, "-replay-tenants", "0"}, 2, "-replay-tenants must be >= 1"},
		{"replay-scale-negative", []string{"-replay", tiny, "-replay-mode", "scaled", "-replay-scale", "-1"}, 2, "-replay-scale must be > 0"},
		{"bad-device", append([]string{"-device", "nosuch"}, quick...), -1, `unknown device "nosuch"`},
		{"bad-shard-mode", append([]string{"-shards", "2", "-shard-mode", "nosuch"}, quick...), -1, `unknown shard mode "nosuch"`},
		{"bad-replay-mode", append([]string{"-replay", tiny, "-replay-mode", "nosuch"}, quick...), -1, `unknown replay mode "nosuch"`},
		{"missing-replay-file", append([]string{"-replay", filepath.Join(t.TempDir(), "none.fsbt")}, quick...), -1, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, bin, tc.args...)
			if code == 0 || (tc.code > 0 && code != tc.code) || !strings.Contains(out, tc.want) {
				t.Errorf("fsbench %s: exit %d, want %d with %q in the output:\n%s",
					strings.Join(tc.args, " "), code, tc.code, tc.want, out)
			}
			// Each of these is a configuration error: none may get as
			// far as a results table.
			if strings.Contains(out, "throughput:") {
				t.Errorf("fsbench %s ran before failing:\n%s", strings.Join(tc.args, " "), out)
			}
		})
	}
}
