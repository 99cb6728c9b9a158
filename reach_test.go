package hauberk_test

// The reachability guard: every non-test declaration in the module must be
// reached from a shipped binary (a `package main`: cmd/*, examples/*,
// bench). Code that only tests reach is deleted, or moved into the test
// files that need it; the one exception is a cross-package test seam,
// which a _test.go file cannot export, listed in reachAllow with the test
// that needs it.
//
// The field guard at the end of the file holds struct fields to the same
// bar: every field some non-test code writes, or it goes.
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
	"reflect"
	"sort"
	"strings"
	"sync"
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

// moduleLoad is the module's non-test packages, type-checked once for
// both guards.
var moduleLoad struct {
	once sync.Once
	ld   *reachLoader
	err  error
}

// loadRepo returns the module's type-checked packages.
func loadRepo(t *testing.T) *reachLoader {
	t.Helper()
	moduleLoad.once.Do(func() {
		fset := token.NewFileSet()
		pkgs, err := parseModule(fset, ".", "hauberk")
		if err != nil {
			moduleLoad.err = err
			return
		}
		moduleLoad.ld, moduleLoad.err = loadModule(fset, pkgs)
	})
	if moduleLoad.err != nil {
		t.Fatal(moduleLoad.err)
	}
	return moduleLoad.ld
}

func TestEveryDeclarationReachable(t *testing.T) {
	ld := loadRepo(t)
	found, stale, err := unreachedDecls(ld, reachAllow)
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
	t.Logf("%d packages, %d allow-listed test seams", len(ld.paths), len(reachAllow))
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

import "errors"

type Namer interface{ Name() string }

type T struct{}

// Name is reached only through the conversion to Namer.
func (T) Name() string { return "t" }

func (T) Dead() {}

// ErrDead's initialiser runs at init, but nothing names ErrDead.
var ErrDead = errors.New("x")

// ErrWrapped's initialiser builds its value and does nothing else, so
// neither the var nor the helper only it calls is reached.
var ErrWrapped = wrapErr("y")

func wrapErr(s string) error { return errors.New("lib: " + s) }

// Nothing names registered, but its initialiser appends to hooks, so it
// and what it names are reached.
var registered = addHook()

var hooks []int

func addHook() int {
	hooks = append(hooks, 1)
	return len(hooks)
}

func Used() {}

func DeadFunc() {}

const DeadConst = 1

// The initialiser runs at init, so register is reached.
var _ = register()

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
	ld, err := loadModule(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	found, stale, err := unreachedDecls(ld, allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range found {
		got = append(got, d.name)
	}
	want := []string{"lib.DeadA", "lib.DeadB", "lib.DeadConst", "lib.DeadFunc", "lib.ErrDead", "lib.ErrWrapped", "lib.T.Dead", "lib.wrapErr", "unused.f", "unused.x"}
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
// The roots are each main package's main func, and, in every package a
// main imports, directly or not, the init funcs, the blank vars'
// initialisers and the named vars whose initialiser has effects outside
// the var (effects). A declaration is reached when reached code names it
// (types.Info.Uses); a var, and so what its initialiser names, is
// reached only that way or as a root. A var kept only for its
// initialiser's effect is best written `var _ = f()`. A method is reached
// when reached code selects it,
// or when its receiver type is reached and the type satisfies an
// interface (any declared in these packages or the standard library ones
// they load, plus the standard library's unnamed probes) that has a
// method of that name: a dynamic call through an interface is invisible
// to Uses, so the rule errs towards keeping.
func unreachedDecls(ld *reachLoader, allow map[string]string) (unreached []unreachedDecl, stale []string, err error) {
	paths := ld.paths
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
			g.walk(info, n)
		}
		for _, s := range g.varInits[p] {
			if g.effects(info, s, map[types.Object]bool{}) {
				for _, n := range s.Names {
					g.mark(info.Defs[n])
				}
			}
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
			unreached = append(unreached, unreachedDecl{pos: ld.fset.Position(obj.Pos()), name: d.name})
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].name < unreached[j].name })
	return unreached, stale, nil
}

// loadModule type-checks the packages (import path → files; imports
// outside the set come from the standard library) and returns the loader.
func loadModule(fset *token.FileSet, pkgs map[string][]*ast.File) (*reachLoader, error) {
	ld := &reachLoader{
		fset:    fset,
		files:   pkgs,
		checked: map[string]*reachPkg{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	for p := range pkgs {
		ld.paths = append(ld.paths, p)
	}
	sort.Strings(ld.paths)
	for _, p := range ld.paths {
		if _, err := ld.load(p); err != nil {
			return nil, err
		}
	}
	return ld, nil
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
	paths   []string // the module packages' import paths, sorted
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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
	initRoots  map[string][]ast.Node       // import path → init funcs, blank vars' initialisers
	varInits   map[string][]*ast.ValueSpec // import path → named vars whose initialiser calls
	named      []*types.Named              // reached named types awaiting the interface rule
	interfaces []*types.Interface
	ifaceNames map[string]bool // methods that module code's type arguments must have
}

func newReachGraph() *reachGraph {
	return &reachGraph{
		decls:      map[types.Object]*reachDecl{},
		reached:    map[types.Object]bool{},
		initRoots:  map[string][]ast.Node{},
		varInits:   map[string][]*ast.ValueSpec{},
		ifaceNames: map[string]bool{},
	}
}

func (g *reachGraph) addPackage(rp *reachPkg) {
	pkgName := qualifier(rp.pkg)
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
						if d.Tok == token.VAR && len(s.Values) > 0 {
							// The initialiser runs at init whether or
							// not anything names the var; a named var's
							// counts when it has effects (unreachedDecls).
							if hasBlank(s.Names) {
								g.initRoots[rp.pkg.Path()] = append(g.initRoots[rp.pkg.Path()], s)
							} else if hasCall(rp.info, s) {
								g.varInits[rp.pkg.Path()] = append(g.varInits[rp.pkg.Path()], s)
							}
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

// qualifier is the package part of a declaration's name: the package
// name, or for a main package the last element of its path (e.g.
// hauberk-run.flagList).
func qualifier(p *types.Package) string {
	if p.Name() == "main" {
		return path.Base(p.Path())
	}
	return p.Name()
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

// pureStd names the standard-library packages, or package.Func, whose
// functions build a value and change nothing else.
var pureStd = map[string]bool{
	"errors": true, "fmt.Errorf": true, "fmt.Sprintf": true, "math": true, "strconv": true, "strings": true,
}

// effects reports whether evaluating n may change state other than the
// value it builds. It errs towards yes: n has effects when it names a
// package-level variable (a read is not told from a write or from a
// pointer passed on), starts a goroutine or sends, or calls anything but a
// conversion, a builtin that only builds a value, a function literal
// (whose body is inspected where it stands), a function of pureStd, or a
// module function or method whose body passes the same test. seen breaks
// recursion.
func (g *reachGraph) effects(info *types.Info, n ast.Node, seen map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				found = true
			}
		case *ast.GoStmt, *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			found = g.callEffects(info, n, seen)
		}
		return !found
	})
	return found
}

func (g *reachGraph) callEffects(info *types.Info, c *ast.CallExpr, seen map[types.Object]bool) bool {
	fun := ast.Unparen(c.Fun)
	if info.Types[fun].IsType() {
		return false
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		return false
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	if id == nil {
		return true // a call through a function value
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "clear", "close", "copy", "delete", "panic", "print", "println":
			return true
		}
		return false
	case *types.Func:
		obj = obj.Origin()
		if d, ok := g.decls[obj]; ok {
			if seen[obj] {
				return false
			}
			seen[obj] = true
			body := d.nodes[0].(*ast.FuncDecl).Body
			return body == nil || g.effects(d.info, body, seen)
		}
		return obj.Pkg() == nil || !(pureStd[obj.Pkg().Path()] || pureStd[obj.Pkg().Path()+"."+obj.Name()])
	}
	return true
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

// --- the field guard ---------------------------------------------------------

// fieldAllow lists the struct fields that only tests write: production
// keeps the zero value, which stands for a constant or a default, and the
// named test (package-clause.TestName, as in reachAllow) needs another. An
// entry that non-test code writes, that names no field, or whose test is
// gone fails the guard.
var fieldAllow = map[string]string{
	"fleet.Transport.Jitter":              "fleet.TestClientBounds429Retries",
	"fleet.Transport.Sleep":               "fleet.TestClientBounds429Retries",
	"harness.CampaignOptions.WorkerArgv":  "harness.TestIsolatedCampaignDigestIdentical",
	"harness.CampaignOptions.WorkerEnv":   "harness.TestWorkerPoolKeysByConfiguration",
	"harness.CampaignOptions.backoff":     "harness.TestWorkerPoolKeysByConfiguration",
	"harness.CampaignOptions.maxRestarts": "harness.TestIsolatedCampaignPersistentFaultsClassified",
	"harness.CampaignOptions.timeout":     "harness.TestCampaignWatchdogClassifiesHang",
	"harness.CampaignOptions.warmupGrace": "harness.TestIsolatedCampaignPersistentFaultsClassified",
}

// TestEveryFieldWritten fails on a field of a non-test struct type that no
// non-test code writes: a knob nothing sets is a constant, or dead. Run it
// alone with:
//
//	go test -run '^TestEveryFieldWritten$' .
func TestEveryFieldWritten(t *testing.T) {
	ld := loadRepo(t)
	found, stale, err := unwrittenFields(ld, fieldAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		t.Errorf("%s: field %s is written by no non-test code (delete it, or make it a constant)", d.pos, d.name)
	}
	for _, name := range stale {
		t.Errorf("fieldAllow: %s (for %s) is written by non-test code or names no field; drop the entry", name, fieldAllow[name])
	}
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	for name, test := range fieldAllow {
		if !tests[test] {
			t.Errorf("fieldAllow: %s names %s, which is no test in the module", name, test)
		}
	}
	t.Logf("%d packages, %d allow-listed test-only fields", len(ld.paths), len(fieldAllow))
}

// TestFieldGuardFlagsUnwrittenFields runs the field analysis on a fixture
// package, so the guard cannot pass by finding nothing.
func TestFieldGuardFlagsUnwrittenFields(t *testing.T) {
	src := `package lib

import (
	"sync"
	"sync/atomic"
)

type Counts struct{ Probe int }

type Pair struct{ A, B int }

// The promoted Lock writes Locked's mutex; n is only read.
type Locked struct {
	sync.Mutex
	n int
}

type C struct {
	mu     sync.Mutex
	n      atomic.Int64
	counts Counts
	Name   string ` + "`json:\"name\"`" + `
	Addr   int
	Lit    int
	Seam   int
	Dead   int
	shared *sync.Mutex // Lock writes the pointee, not the field
}

func New() *C { return &C{Lit: 1} }

func (c *C) Use() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n.Add(1)
	c.counts.Probe++
	p := &c.Addr
	c.shared.Lock()
	var l Locked
	l.Lock()
	pr := Pair{1, 2}
	return c.Dead + c.Seam + *p + int(c.n.Load()) + len(c.Name) + pr.A + pr.B + l.n
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix/lib/x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"lib.C.Seam": "TestSeam", "lib.C.Lit": "TestLit", "lib.C.Gone": "TestGone"}
	ld, err := loadModule(fset, map[string][]*ast.File{"fix/lib": {f}})
	if err != nil {
		t.Fatal(err)
	}
	found, stale, err := unwrittenFields(ld, allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range found {
		got = append(got, d.name)
	}
	if want := []string{"lib.C.Dead", "lib.C.shared", "lib.Locked.n"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unwritten = %v, want %v", got, want)
	}
	if want := []string{"lib.C.Gone", "lib.C.Lit"}; strings.Join(stale, " ") != strings.Join(want, " ") {
		t.Errorf("stale allow-list entries = %v, want %v", stale, want)
	}
}

// unwrittenFields type-checks the packages and returns, sorted by name,
// every field of a struct type they spell out that none of their code
// writes and the allow-list does not name, and the allow-list entries
// that name a written field or none. A field is named after what encloses
// its struct type: pkg.Type.Field, pkg.var.Field, pkg.Type.outer.Field.
//
// A field is written by a composite-literal key or position; by an
// assignment, ++ or -- through a selector chain that contains it
// (c.counts.Probe++ writes counts and Probe); by &x.F, which writes the
// chain's fields too; and by a call of a pointer-receiver method on it,
// or on a field it embeds, when the field holds the value and not a
// pointer (a sync.Mutex's Lock, an atomic.Int64's Add). A field with a
// json tag is exempt: decoding writes it.
func unwrittenFields(ld *reachLoader, allow map[string]string) (unwritten []unreachedDecl, stale []string, err error) {
	written := map[*types.Var]bool{}
	fields := map[*types.Var]string{}
	for _, p := range ld.paths {
		rp := ld.checked[p]
		for _, f := range rp.files {
			declaredFields(rp.info, f, qualifier(rp.pkg), fields)
			markWrites(rp.info, f, written)
		}
	}
	allowed := map[string]bool{}
	for v, name := range fields {
		if _, ok := allow[name]; ok {
			allowed[name] = !written[v]
		} else if !written[v] {
			unwritten = append(unwritten, unreachedDecl{pos: ld.fset.Position(v.Pos()), name: name})
		}
	}
	for name := range allow {
		if !allowed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	sort.Slice(unwritten, func(i, j int) bool { return unwritten[i].name < unwritten[j].name })
	return unwritten, stale, nil
}

// declaredFields adds to fields, with its qualified name, every field of
// every struct type the file spells out, less blank, json-tagged and
// stateless ones.
func declaredFields(info *types.Info, f *ast.File, pkgName string, fields map[*types.Var]string) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		lit, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		st := info.TypeOf(lit).(*types.Struct)
		prefix := pkgName
		for _, e := range stack {
			switch e := e.(type) {
			case *ast.FuncDecl:
				prefix += "." + e.Name.Name
			case *ast.TypeSpec:
				prefix += "." + e.Name.Name
			case *ast.ValueSpec:
				prefix += "." + e.Names[0].Name
			case *ast.Field:
				if len(e.Names) > 0 {
					prefix += "." + e.Names[0].Name
				}
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); v.Name() == "_" || tagged || stateless(v.Type()) {
				continue
			}
			fields[v] = prefix + "." + v.Name()
		}
		return true
	})
}

// markWrites adds to written every field the file's code writes.
func markWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	// chain marks the fields of every selector in the chain of an
	// operand that is assigned, incremented or addressed.
	chain := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					for _, v := range selectionPath(sel) {
						written[v.Origin()] = true
					}
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				chain(l)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				chain(n.Key)
				chain(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[v.Origin()] = true
					}
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
				return true
			}
			// The call takes the address of the receiver: the last
			// embedded field on the path, or the operand itself, and
			// of what holds it, up to the first pointer.
			path := selectionPath(sel)
			for i := len(path) - 1; i >= 0; i-- {
				if _, ptr := path[i].Type().(*types.Pointer); ptr {
					return true
				}
				written[path[i].Origin()] = true
			}
			if _, ptr := info.TypeOf(n.X).(*types.Pointer); !ptr {
				chain(n.X)
			}
		}
		return true
	})
}

// selectionPath returns the fields a field or method selection passes
// through: the embedded fields it is promoted through and, for a field,
// the field itself.
func selectionPath(sel *types.Selection) []*types.Var {
	var out []*types.Var
	t := sel.Recv()
	idx := sel.Index()
	if sel.Kind() == types.MethodVal {
		idx = idx[:len(idx)-1]
	}
	for _, i := range idx {
		v := deref(t).Underlying().(*types.Struct).Field(i)
		out = append(out, v)
		t = v.Type()
	}
	return out
}

// stateless reports whether t is an empty struct, which holds nothing to
// write: such a field is embedded for its methods (gpu.NopHooks).
func stateless(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
