package analysis

import "strings"

// simPackages are the first path segments under repro/internal/ that
// hold simulated state: code there runs under virtual time and must
// obey the determinism rules of DESIGN.md §4.
var simPackages = map[string]bool{
	"sim": true, "device": true, "vfs": true, "cache": true,
	"fs": true, "workload": true, "trace": true,
}

// simScope reports whether pkgPath is a simulation package (or a
// subpackage of one, like repro/internal/fs/ext3sim).
func simScope(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, "repro/internal/")
	if !ok {
		return false
	}
	seg, _, _ := strings.Cut(rest, "/")
	return simPackages[seg]
}

// All returns every registered analyzer. Adding analyzer #6 is one
// file declaring the Analyzer, one line here, and one fixture
// directory under testdata/ (DESIGN.md §11).
func All() []*Analyzer {
	return []*Analyzer{
		MapRange,
		WallTime,
		Percentile,
		OwnerStamp,
		StringerFreeze,
		DeadAPI,
	}
}
