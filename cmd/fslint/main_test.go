package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestJSONOutput drives the CLI path end to end against a seeded
// fixture: findings come out one JSON object per line, positions are
// module-root-relative, and the stream round-trips through the
// decoder that downstream tooling would use.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	diags, err := run([]string{"../../internal/analysis/testdata/percentile"}, true, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 4 {
		t.Fatalf("percentile fixture has 4 unsuppressed findings, got %d: %v", len(diags), diags)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(diags) {
		t.Errorf("want one JSON line per diagnostic, got %d lines for %d findings", got, len(diags))
	}
	var decoded []analysis.Diagnostic
	for dec := json.NewDecoder(&buf); dec.More(); {
		var d analysis.Diagnostic
		if err := dec.Decode(&d); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, d)
	}
	for i, d := range decoded {
		if d != diags[i] {
			t.Errorf("diagnostic %d changed in transit: %+v vs %+v", i, d, diags[i])
		}
		if d.Rule != "percentile" {
			t.Errorf("diagnostic %d: rule %q, want percentile", i, d.Rule)
		}
		if d.File != "internal/analysis/testdata/percentile/fixture.go" {
			t.Errorf("diagnostic %d: position %q not module-root-relative", i, d.File)
		}
	}
}

// TestExpandWildcard pins the pattern grammar: "./..." walks package
// directories and skips testdata.
func TestExpandWildcard(t *testing.T) {
	dirs, err := expand([]string{"../../internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || !strings.HasSuffix(dirs[0], "analysis") {
		t.Errorf("expand found %v, want just the analysis package dir", dirs)
	}
}

// TestDeadAPISeesWholeModule lints one directory of the real module.
// Its exported functions are called only from other packages, so
// deadapi must count references from the whole module, not just from
// the linted directory: linted alone, the package looks dead.
func TestDeadAPISeesWholeModule(t *testing.T) {
	const dir = "../../internal/par"
	diags, err := run([]string{dir}, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Rule == "deadapi" {
			t.Errorf("function used elsewhere in the module reported: %s", d)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	alone := analysis.RunAnalyzers(loader.Fset, []*analysis.Package{pkg}, nil, []*analysis.Analyzer{analysis.DeadAPI})
	if len(alone) == 0 {
		t.Fatal("linted without the rest of the module, internal/par reports nothing: the test no longer shows anything")
	}
}
