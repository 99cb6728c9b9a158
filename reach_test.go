package hauberk_test

// The reachability guard: every non-test declaration in the module must be
// reached from a shipped binary (a `package main`: cmd/*, examples/*,
// bench). Code that only tests reach is deleted, or moved into the test
// files that need it; the one exception is a cross-package test seam,
// which a _test.go file cannot export, listed in reachAllow with the test
// that needs it.
//
// Run it alone with:
//
//	go test -run '^TestEveryDeclarationReachable$' .

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the cross-package test seams: declarations that only
// tests in another package use, which a _test.go file cannot export. The
// value names the test that needs the entry, as package-clause.TestName.
// An entry is a root; a type's entry covers its methods. An entry the
// binaries reach, that names nothing, or whose test is gone fails the
// guard.
var reachAllow = map[string]string{
	"gpu.Device.Snapshot":        "harness.TestResumeEqualsFullLaunch",
	"kir.Builder.Emit":           "gpu.TestEnginesDiffSemantics",
	"obs.Field.Value":            "gpu.TestLaunchEmitsTelemetry",
	"obs.MemSink":                "guardian.TestPoolTickEvents",
	"obshttp.Server.Routes":      "service.TestReadmeEndpointCatalog",
	"promtext.Exposition.Family": "obs_test.TestPromExpositionConformance",
	"promtext.Exposition.Sample": "obs_test.TestPromExpositionConformance",
	"service.SetTestOptsHook":    "fleet.TestFleetFailoverOnNodeDeath",
}

func TestEveryDeclarationReachable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, ".", "hauberk")
	if err != nil {
		t.Fatal(err)
	}
	found, stale, err := unreachedDecls(fset, pkgs, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		t.Errorf("%s: %s is reached by no package main (delete it, or move it into the tests that use it)", d.pos, d.name)
	}
	for _, name := range stale {
		t.Errorf("reachAllow: %s (for %s) is reached by a package main or names nothing; drop the entry", name, reachAllow[name])
	}
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	for name, test := range reachAllow {
		if !tests[test] {
			t.Errorf("reachAllow: %s names %s, which is no test in the module", name, test)
		}
	}
	t.Logf("%d packages, %d allow-listed test seams", len(pkgs), len(reachAllow))
}

// TestReachGuardFlagsDeadCode runs the analysis on a fixture module, so the
// guard cannot pass by finding nothing.
func TestReachGuardFlagsDeadCode(t *testing.T) {
	src := map[string]string{
		"fix/cmd/tool": `package main

import "fix/lib"

func main() {
	lib.Used()
	_ = lib.Bands
	_ = lib.Min(lib.K(1), lib.K(2))
	var n lib.Namer = lib.T{}
	_ = n
}
`,
		"fix/lib": `package lib

type Namer interface{ Name() string }

type T struct{}

// Name is reached only through the conversion to Namer.
func (T) Name() string { return "t" }

func (T) Dead() {}

func Used() {}

func DeadFunc() {}

const DeadConst = 1

// registered's initialiser runs at init, so it is reached.
var registered = register()

func register() int { return helperOfRegister() }

func helperOfRegister() int { return 1 }

type Band int

// BandMid is never named, but BandCount counts it.
const (
	BandLow Band = iota
	BandMid
	BandCount
)

var Bands [BandCount]string

// Nothing names either member.
const (
	DeadA = iota
	DeadB
)

type Lesser[T any] interface{ Less(T) bool }

type K int

// Less is reached only through Min's constraint.
func (K) Less(K) bool { return false }

func Min[T Lesser[T]](a, b T) T {
	if b.Less(a) {
		return b
	}
	return a
}

// Seam is allow-listed; its entry covers its method and what they use.
type Seam struct{}

func (Seam) Get() int { return seamHelper() }

func seamHelper() int { return 2 }
`,
		"fix/unused": `package unused

// Nothing imports this package, so even its initialiser is dead.
var x = f()

func f() int { return 1 }
`,
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for p, text := range src {
		f, err := parser.ParseFile(fset, p+"/x.go", text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[p] = []*ast.File{f}
	}
	allow := map[string]string{"lib.Seam": "TestSeam", "lib.Used": "TestUsed", "lib.Gone": "TestGone"}
	found, stale, err := unreachedDecls(fset, pkgs, allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range found {
		got = append(got, d.name)
	}
	want := []string{"lib.DeadA", "lib.DeadB", "lib.DeadConst", "lib.DeadFunc", "lib.T.Dead", "unused.f", "unused.x"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	if want := []string{"lib.Gone", "lib.Used"}; strings.Join(stale, " ") != strings.Join(want, " ") {
		t.Errorf("stale allow-list entries = %v, want %v", stale, want)
	}
}

// walkGo calls fn on every .go file under root, skipping testdata and
// hidden directories as the go command does.
func walkGo(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		return fn(p)
	})
}

// parseModule parses the non-test Go files of every package under root,
// keyed by import path.
func parseModule(fset *token.FileSet, root, module string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := walkGo(root, func(p string) error {
		dir, name := filepath.Dir(p), filepath.Base(p)
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	return pkgs, err
}

// testFuncs returns the module's test funcs as package-clause.TestName.
func testFuncs(root string) (map[string]bool, error) {
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := walkGo(root, func(p string) error {
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				out[f.Name.Name+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	return out, err
}

// unreachedDecl is one declaration no package main reaches; name is
// "pkg.Name" or, for a method, "pkg.Type.Method".
type unreachedDecl struct {
	pos  token.Position
	name string
}

// unreachedDecls type-checks the packages (import path → files; imports
// outside the set come from the standard library) and returns, sorted by
// name, every package-level declaration and method that neither a package
// main nor an allow-list entry reaches, and the allow-list entries that a
// package main reaches or that name no declaration.
//
// The roots are each main package's main func, and the init funcs and
// effectful package-level var initialisers (a call, or a blank var) of
// every package a main imports, directly or not. A declaration is reached when reached code names it
// (types.Info.Uses). A method is reached when reached code selects it,
// or when its receiver type is reached and the type satisfies an
// interface (any declared in these packages or the standard library ones
// they load, plus the standard library's unnamed probes) that has a
// method of that name: a dynamic call through an interface is invisible
// to Uses, so the rule errs towards keeping.
func unreachedDecls(fset *token.FileSet, pkgs map[string][]*ast.File, allow map[string]string) (unreached []unreachedDecl, stale []string, err error) {
	ld := &reachLoader{
		fset:    fset,
		files:   pkgs,
		checked: map[string]*reachPkg{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := ld.load(p); err != nil {
			return nil, nil, err
		}
	}
	probes, err := ld.probes()
	if err != nil {
		return nil, nil, err
	}

	g := newReachGraph()
	for _, p := range paths {
		g.addPackage(ld.checked[p])
	}
	g.collectInterfaces(ld, probes)

	// Roots: main, and the init work of every package a main imports.
	imported := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if imported[p.Path()] {
			return
		}
		imported[p.Path()] = true
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range paths {
		rp := ld.checked[p]
		if rp.pkg.Name() != "main" {
			continue
		}
		visit(rp.pkg)
		if m, ok := rp.pkg.Scope().Lookup("main").(*types.Func); ok {
			g.mark(m)
		}
	}
	for _, p := range paths {
		if !imported[p] {
			continue
		}
		info := ld.checked[p].info
		for _, n := range g.initRoots[p] {
			if s, ok := n.(*ast.ValueSpec); ok {
				for _, id := range s.Names {
					g.mark(info.Defs[id])
				}
			}
			g.walk(info, n)
		}
	}
	g.drain()

	// Then the allow-list's test seams, once the binaries' reach is known.
	byName := map[string]types.Object{}
	for obj, d := range g.decls {
		byName[d.name] = obj
	}
	for name := range allow {
		obj, ok := byName[name]
		if !ok || g.reached[obj] {
			stale = append(stale, name)
			continue
		}
		g.mark(obj)
		for method, obj := range byName {
			if strings.HasPrefix(method, name+".") {
				g.mark(obj)
			}
		}
	}
	g.drain()
	sort.Strings(stale)

	for obj, d := range g.decls {
		if !g.reached[obj] {
			unreached = append(unreached, unreachedDecl{pos: fset.Position(obj.Pos()), name: d.name})
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].name < unreached[j].name })
	return unreached, stale, nil
}

// reachPkg is one type-checked module package.
type reachPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// reachLoader type-checks module packages from source on demand and
// serves every other import from the standard library's source.
type reachLoader struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	checked map[string]*reachPkg
	std     types.Importer
}

func (l *reachLoader) Import(p string) (*types.Package, error) {
	if _, ok := l.files[p]; ok {
		rp, err := l.load(p)
		if err != nil {
			return nil, err
		}
		return rp.pkg, nil
	}
	return l.std.Import(p)
}

func (l *reachLoader) load(p string) (*reachPkg, error) {
	if rp, ok := l.checked[p]; ok {
		return rp, nil
	}
	rp := &reachPkg{files: l.files[p], info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, rp.files, rp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	rp.pkg = pkg
	l.checked[p] = rp
	return rp, nil
}

// reachProbes declares the interfaces the standard library tests for with
// an unnamed type assertion (errors.Is/As/Unwrap), and imports the
// packages whose named interfaces fmt, encoding/json and sort call
// through, so that those are loaded even where module code does not
// import them.
const reachProbes = `package probes

import (
	_ "container/heap"
	_ "encoding"
	_ "encoding/json"
	_ "fmt"
	_ "sort"
)

type (
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
)
`

func (l *reachLoader) probes() (*reachPkg, error) {
	f, err := parser.ParseFile(l.fset, "probes.go", reachProbes, 0)
	if err != nil {
		return nil, err
	}
	rp := &reachPkg{files: []*ast.File{f}, info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}}
	conf := types.Config{Importer: l}
	if rp.pkg, err = conf.Check("probes", l.fset, rp.files, rp.info); err != nil {
		return nil, err
	}
	return rp, nil
}

// reachDecl is one declaration the guard tracks: its qualified name and
// the syntax whose uses become reached once it is.
type reachDecl struct {
	name  string
	info  *types.Info
	nodes []ast.Node
	// group is the const block when it counts with iota: deleting one
	// member would renumber the rest, so one reached member reaches all.
	group []types.Object
}

type reachGraph struct {
	decls      map[types.Object]*reachDecl
	reached    map[types.Object]bool
	work       []types.Object
	initRoots  map[string][]ast.Node // import path → init funcs, var initialisers
	named      []*types.Named        // reached named types awaiting the interface rule
	interfaces []*types.Interface
	ifaceNames map[string]bool // methods that module code's type arguments must have
}

func newReachGraph() *reachGraph {
	return &reachGraph{
		decls:      map[types.Object]*reachDecl{},
		reached:    map[types.Object]bool{},
		initRoots:  map[string][]ast.Node{},
		ifaceNames: map[string]bool{},
	}
}

func (g *reachGraph) addPackage(rp *reachPkg) {
	pkgName := rp.pkg.Name()
	if pkgName == "main" {
		pkgName = path.Base(rp.pkg.Path()) // e.g. hauberk-run.flagList
	}
	add := func(obj types.Object, name string, nodes ...ast.Node) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		g.decls[obj] = &reachDecl{name: name, info: rp.info, nodes: nodes}
	}
	for _, f := range rp.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					g.initRoots[rp.pkg.Path()] = append(g.initRoots[rp.pkg.Path()], d)
					continue
				}
				fn, _ := rp.info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				name := pkgName + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = pkgName + "." + recvName(recv.Type()) + "." + fn.Name()
				}
				add(fn, name, d)
			case *ast.GenDecl:
				var implicit *ast.ValueSpec // the spec an iota const repeats
				var group []types.Object
				counts := false // the block uses iota
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(rp.info.Defs[s.Name], pkgName+"."+s.Name.Name, s)
					case *ast.ValueSpec:
						nodes := []ast.Node{s}
						if d.Tok == token.CONST {
							if len(s.Values) > 0 {
								implicit = s
								counts = counts || usesIota(rp.info, s)
							} else if implicit != nil {
								nodes = append(nodes, implicit)
							}
						}
						if d.Tok == token.VAR && len(s.Values) > 0 && (hasBlank(s.Names) || hasCall(rp.info, s)) {
							// The initialiser runs at init whether or
							// not anything names the var.
							g.initRoots[rp.pkg.Path()] = append(g.initRoots[rp.pkg.Path()], s)
						}
						for _, n := range s.Names {
							add(rp.info.Defs[n], pkgName+"."+n.Name, nodes...)
							group = append(group, rp.info.Defs[n])
						}
					}
				}
				if counts {
					for _, obj := range group {
						if d := g.decls[obj]; d != nil {
							d.group = group
						}
					}
				}
			}
		}
	}
}

// recvName is the receiver's type name without pointer or type arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func usesIota(info *types.Info, s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
				found = true
			}
			return !found
		})
	}
	return found
}

func hasBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name == "_" {
			return true
		}
	}
	return false
}

// hasCall reports whether the spec's initialiser calls a function (and so
// may have effects); a type conversion is not a call.
func hasCall(info *types.Info, s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // runs only when called
			}
			if c, ok := n.(*ast.CallExpr); ok && !info.Types[c.Fun].IsType() {
				found = true
			}
			return !found
		})
	}
	return found
}

// collectInterfaces gathers every interface with methods: those in the
// module's type information, and those declared at package level in any
// package the loader reached. An uninstantiated generic interface is left
// out (no value has that type); instead, every method a constraint of a
// generic func or type that module code instantiates requires goes into
// ifaceNames, since the generic body may call it on a type argument.
func (g *reachGraph) collectInterfaces(ld *reachLoader, probes *reachPkg) {
	seen := map[*types.Interface]bool{}
	addType := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		g.interfaces = append(g.interfaces, it)
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	all := []*reachPkg{probes}
	for _, rp := range ld.checked {
		all = append(all, rp)
	}
	for _, rp := range all {
		visit(rp.pkg)
		for _, tv := range rp.info.Types {
			if tv.Type != nil {
				addType(tv.Type)
			}
		}
		for id := range rp.info.Instances {
			var tparams *types.TypeParamList
			switch t := rp.info.Uses[id].Type().(type) {
			case *types.Signature:
				tparams = t.TypeParams()
			case *types.Named:
				tparams = t.TypeParams()
			}
			for i := 0; i < tparams.Len(); i++ {
				it := tparams.At(i).Constraint().Underlying().(*types.Interface)
				for j := 0; j < it.NumMethods(); j++ {
					g.ifaceNames[it.Method(j).Name()] = true
				}
			}
		}
	}
}

// origin maps an instantiated generic func to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func (g *reachGraph) mark(obj types.Object) {
	obj = origin(obj)
	if g.reached[obj] {
		return
	}
	if _, ok := g.decls[obj]; !ok {
		return
	}
	g.reached[obj] = true
	g.work = append(g.work, obj)
	if tn, ok := obj.(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			g.named = append(g.named, n)
		}
	}
}

// walk marks every declaration the syntax names.
func (g *reachGraph) walk(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				g.mark(obj)
			}
		}
		return true
	})
}

// drain runs the worklist and the interface rule to a fixed point.
func (g *reachGraph) drain() {
	for len(g.work) > 0 || len(g.named) > 0 {
		for len(g.work) > 0 {
			obj := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			d := g.decls[obj]
			for _, n := range d.nodes {
				g.walk(d.info, n)
			}
			for _, o := range d.group {
				g.mark(o)
			}
		}
		named := g.named
		g.named = nil
		for _, n := range named {
			g.satisfy(n)
		}
	}
}

// satisfy marks the methods through which reached type n (or *n) can
// satisfy an interface.
func (g *reachGraph) satisfy(n *types.Named) {
	if _, ok := n.Underlying().(*types.Interface); ok {
		return
	}
	ptr := types.NewPointer(n)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return
	}
	have := map[string]*types.Selection{}
	for i := 0; i < mset.Len(); i++ {
		have[mset.At(i).Obj().Name()] = mset.At(i)
	}
	generic := n.TypeParams().Len() > 0 // Implements cannot test an uninstantiated type
	for name, sel := range have {
		if g.ifaceNames[name] {
			g.mark(sel.Obj())
		}
	}
	for _, it := range g.interfaces {
		all := true
		for i := 0; i < it.NumMethods() && all; i++ {
			_, all = have[it.Method(i).Name()]
		}
		if !all || !(generic || types.Implements(ptr, it)) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			g.mark(have[it.Method(i).Name()].Obj())
		}
	}
}
