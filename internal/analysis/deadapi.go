package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadAPI reports exported functions and methods of repro/internal/...
// packages that no non-test file in the module references. An
// exported name is a promise that some other code needs it; one that
// only its own tests call is untested surface pretending to be API,
// and the smallest harness to audit is the one without it. The rule
// is whole-module: a reference anywhere in the module (simbench, the
// commands and the examples included) keeps a function, whichever
// packages are being linted. Methods that satisfy an interface are
// exempt, since they are called through it (DESIGN.md §11.6).
var DeadAPI = &Analyzer{
	Name:      "deadapi",
	Doc:       "exported internal/ functions and methods must be referenced by non-test code somewhere in the module",
	Scope:     internalScope,
	SkipTests: true,
	Prepare:   prepareDeadAPI,
	Run:       runDeadAPI,
}

// internalScope is every package under repro/internal/ except
// fixtures, which the go tool never builds.
func internalScope(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "repro/internal/") && !strings.Contains(pkgPath, "/testdata")
}

// funcKey names a package-level function or method independently of
// the unit that type-checked it. Each Unit is checked on its own, so
// one declaration is a different *types.Func in the unit declaring it
// and in every unit importing it; object identity cannot match them.
type funcKey struct{ pkg, recv, name string }

func keyOf(fn *types.Func) funcKey {
	fn = fn.Origin()
	k := funcKey{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			k.recv = named.Obj().Name()
		}
	}
	return k
}

// deadIndex is what the rule knows about the whole module: which
// functions are referenced from non-test and from test files, and
// every interface non-test code can reach, by method name.
type deadIndex struct {
	used, testUsed map[funcKey]bool
	ifaces         map[string][]*types.Interface
}

func prepareDeadAPI(fset *token.FileSet, module []*Package) any {
	idx := &deadIndex{used: map[funcKey]bool{}, testUsed: map[funcKey]bool{}, ifaces: map[string][]*types.Interface{}}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx.ifaces[name] = append(idx.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var addPkg func(*types.Package)
	addPkg = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && !strings.HasSuffix(fset.Position(tn.Pos()).Filename, "_test.go") {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addPkg(imp)
		}
	}
	for _, pkg := range module {
		for _, unit := range pkg.Units {
			if !unit.XTest {
				addPkg(unit.Pkg)
			}
			for _, f := range unit.Files {
				test := isTestFile(fset, f)
				refs := idx.used
				if test {
					refs = idx.testUsed
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := unit.Info.Uses[n].(*types.Func); ok {
							refs[keyOf(fn)] = true
						}
					case *ast.InterfaceType: // inline, as in x.(interface{ M() })
						if !test {
							addIface(unit.Info.TypeOf(n))
						}
					}
					return true
				})
			}
		}
	}
	return idx
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

func runDeadAPI(p *Pass) {
	if p.Pkg.Name() == "main" {
		return
	}
	idx := p.Prepared.(*deadIndex)
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			k := keyOf(fn)
			if idx.used[k] || idx.satisfiesInterface(fn) {
				continue
			}
			what := k.name
			if k.recv != "" {
				what = k.recv + "." + k.name
			}
			if idx.testUsed[k] {
				p.Reportf(fd.Name.Pos(), "%s is referenced only by tests: delete it with the tests of it alone", what)
			} else {
				p.Reportf(fd.Name.Pos(), "%s is never referenced: delete it", what)
			}
		}
	}
}

// satisfiesInterface reports whether method fn helps its receiver
// type satisfy some interface in reach that declares fn's name: such a
// method is called through the interface, not by name. Signatures are
// compared as qualified strings, because the interface and the
// receiver may come from different units' copies of one package.
func (idx *deadIndex) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Type())
	}
	for _, it := range idx.ifaces[fn.Name()] {
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			m := it.Method(i)
			sig, found := have[m.Name()]
			ok = found && sig == sigString(m.Type())
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString spells a signature's parameter and result types with
// package paths and without names, which an implementation may change.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
