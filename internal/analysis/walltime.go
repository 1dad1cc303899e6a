package analysis

import (
	"go/ast"
	"go/types"
)

// wallTimeFuncs are the wall-clock entry points banned in simulation
// packages: virtual time comes from the sim.EventLoop, never the host.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are math/rand (and v2) top-level functions drawing
// from the process-global, time-seeded source. Seeded construction
// (rand.New, rand.NewSource, rand.NewZipf, rand/v2.NewPCG, …) stays
// legal — simulation randomness must come from seeded sim.RNG
// streams, and those constructors are how test fixtures build them.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true, "N": true,
}

// WallTime flags host-clock and global-randomness use in simulation
// packages. A simulated system that reads the host clock or an
// unseeded RNG produces results that differ run to run — the exact
// fragility the harness exists to eliminate; virtual time comes from
// the sim.EventLoop and randomness from seeded sim.RNG streams (DESIGN.md
// §4). Test files are exempt: a real-time watchdog around a
// simulation is measurement scaffolding, not simulated state.
var WallTime = &Analyzer{
	Name:      "walltime",
	Doc:       "wall-clock time and global math/rand are banned in simulation packages; use the sim.EventLoop clock and seeded sim.RNG",
	Scope:     simScope,
	SkipTests: true,
	Run:       runWallTime,
}

func runWallTime(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := p.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Methods are fine: (*rand.Rand).Intn on a seeded
				// stream is the legal spelling; only package-level
				// functions touch the global source or host clock.
				if fn.Signature().Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallTimeFuncs[fn.Name()] {
						p.Reportf(n.Pos(), "time.%s reads the host clock; simulation time comes from the sim.EventLoop", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[fn.Name()] {
						p.Reportf(n.Pos(), "global %s.%s draws from the process-global source; use a seeded sim.RNG stream", fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.CompositeLit:
				t := p.Info.TypeOf(n)
				if t == nil {
					return true
				}
				if named, ok := t.(*types.Named); ok {
					obj := named.Obj()
					if obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
						(obj.Name() == "Timer" || obj.Name() == "Ticker") {
						p.Reportf(n.Pos(), "time.%s runs on the host clock; schedule events on the sim.EventLoop instead", obj.Name())
					}
				}
			}
			return true
		})
	}
}
