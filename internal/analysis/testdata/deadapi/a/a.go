// Package a declares the exported API the deadapi fixture checks;
// package b (a main package) is its only non-test caller.
package a

// Used is called from package b.
func Used() int { return helper() }

// UsedInPackage is called by Used's helper, inside this package.
func UsedInPackage() int { return 1 }

func helper() int { return UsedInPackage() }

// Unused has no reference anywhere.
func Unused() {} // want "Unused is never referenced"

// TestOnly is called only from a_test.go.
func TestOnly() int { return 2 } // want "TestOnly is referenced only by tests"

// T carries methods of every kind.
type T struct{}

// UsedMethod is called from package b.
func (T) UsedMethod() {}

// UnusedMethod has no reference anywhere.
func (*T) UnusedMethod() {} // want "T.UnusedMethod is never referenced"

// String satisfies fmt.Stringer, so fmt calls it: exempt.
func (T) String() string { return "t" }

// Shape is satisfied by T.
type Shape interface {
	Area(scale float64) float64
}

// Area satisfies Shape (its parameter name differs, which does not
// matter): called through the interface, so exempt.
func (T) Area(s float64) float64 { return s }

// Volume is called through an inline interface in package b: exempt.
func (T) Volume() float64 { return 0 }

// Depth satisfies only an interface declared in a test file, which no
// non-test code can call it through.
func (T) Depth() int { return 0 } // want "T.Depth is never referenced"

// Perimeter shares no interface and has no caller.
func (T) Perimeter() float64 { return 0 } // want "T.Perimeter is never referenced"

// Ignored has no caller but carries a reviewed exemption.
//
//fslint:ignore deadapi fixture for the suppression path
func Ignored() {}

// unexported is not API.
func unexported() {}
