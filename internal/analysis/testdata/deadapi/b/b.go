// Command b is package a's caller. Exported names in a main package
// are not API, so Exported is not reported.
package main

import "repro/internal/analysis/testdata/deadapi/a"

// Exported has no caller, but package main is exempt.
func Exported() {}

func main() {
	a.Used()
	a.T{}.UsedMethod()
	if v, ok := any(a.T{}).(interface{ Volume() float64 }); ok {
		_ = v.Volume()
	}
}
