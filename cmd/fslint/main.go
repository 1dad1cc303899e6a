// Command fslint runs the repository's domain lint rules — the
// determinism and accounting invariants of DESIGN.md §11 — over the
// module and exits nonzero on findings.
//
// Usage:
//
//	fslint ./...            # lint every package under the cwd
//	fslint ./internal/sim   # lint one directory
//	fslint -json ./...      # one JSON diagnostic per line
//	fslint -rules           # list registered rules and exit
//
// Findings print as file:line:col: rule: message. A site that is
// deliberately exempt carries an "//fslint:ignore <rule> <reason>"
// comment on its line or the line above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit one JSON diagnostic per line (rule, file, line, col, message)")
		listRules = flag.Bool("rules", false, "list registered rules and exit")
	)
	flag.Parse()

	if *listRules {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := run(patterns, *jsonOut, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fslint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func run(patterns []string, jsonOut bool, out io.Writer) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	dirs, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	// Whole-module rules see every package, whichever ones are linted.
	moduleDirs, err := analysis.Walk(loader.ModuleRoot())
	if err != nil {
		return nil, err
	}
	loaded := map[string]*analysis.Package{}
	load := func(dirs []string) ([]*analysis.Package, error) {
		var pkgs []*analysis.Package
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				return nil, err
			}
			pkg, ok := loaded[abs]
			if !ok {
				if pkg, err = loader.LoadDir(abs); err != nil {
					return nil, err
				}
				loaded[abs] = pkg
			}
			pkgs = append(pkgs, pkg)
		}
		return pkgs, nil
	}
	pkgs, err := load(dirs)
	if err != nil {
		return nil, err
	}
	module, err := load(moduleDirs)
	if err != nil {
		return nil, err
	}
	diags := analysis.RunAnalyzers(loader.Fset, pkgs, append(module, pkgs...), analysis.All())
	rel(diags, loader.ModuleRoot())
	if jsonOut {
		if err := analysis.EncodeJSON(out, diags); err != nil {
			return nil, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	return diags, nil
}

// expand resolves the "./..." wildcard and plain directory patterns
// into package directories.
func expand(patterns []string) ([]string, error) {
	var dirs []string
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			sub, err := analysis.Walk(root)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, filepath.Clean(pat))
	}
	return dirs, nil
}

// rel rewrites absolute file positions relative to the module root
// so output is stable across checkouts.
func rel(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		abs, err := filepath.Abs(diags[i].File)
		if err != nil {
			continue
		}
		if r, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(r, "..") {
			diags[i].File = r
		}
	}
}
