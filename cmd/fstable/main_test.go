package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/warehouse"
)

// buildBinary builds this command into a test temporary directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fstable")
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

// appendSynthetic archives one eight-run record under name whose
// per-run throughputs and latencies are base's scaled by factor.
func appendSynthetic(t *testing.T, st *warehouse.Store, name string, factor float64) {
	t.Helper()
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	rec := warehouse.Record{Fingerprint: "synthetic", Name: name, Runs: len(base)}
	for i, tp := range base {
		h := &metrics.Histogram{}
		h.Record(sim.Time(1e5 * (1 + float64(i%3)/20) / factor))
		rec.PerRun = append(rec.PerRun, warehouse.RunRecord{Throughput: tp * factor, HitRatio: 0.9, Hist: h})
	}
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func TestExitCodes(t *testing.T) {
	bin := buildBinary(t)
	wh := t.TempDir()
	st, err := warehouse.Open(wh)
	if err != nil {
		t.Fatal(err)
	}
	appendSynthetic(t, st, "base", 1)
	appendSynthetic(t, st, "cand", 0.8) // 20% slower, 25% higher latency
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown-flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
		{"unknown-personality", []string{"-classify", "nosuch"}, 1, `unknown personality "nosuch"`},
		{"compare-regressed", []string{"-warehouse", wh, "-compare", "-base", "name=base", "-cand", "name=cand"}, 1, "REGRESSED"},
		{"compare-unchanged", []string{"-warehouse", wh, "-compare", "-base", "name=base", "-cand", "name=base"}, 0, "no regressions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, bin, tc.args...)
			if code != tc.code || !strings.Contains(out, tc.want) {
				t.Errorf("fstable %s: exit %d, want %d with %q in the output:\n%s",
					strings.Join(tc.args, " "), code, tc.code, tc.want, out)
			}
		})
	}
}
