package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported identifiers of internal/ that no
// non-test file references but that stay exported on purpose, each with
// its reason. Keys are "pkgpath.Name" or "pkgpath.Type.Method". The list
// only shrinks: new code that only tests call goes beside those tests,
// and an entry whose identifier gains a non-test user, or disappears, is
// reported stale so that it is dropped.
var testOnlyExports = map[string]string{
	// The perf gate's harness runs from internal/perf's tests by design
	// (go test ./internal/perf -benchjson / -perfdiff).
	"repro/internal/perf.Collect":          "measures the suite for -benchjson and TestPerfDiff",
	"repro/internal/perf.Compare":          "the gate TestPerfDiff applies",
	"repro/internal/perf.ReadReport":       "loads the committed BENCH_sim.json for TestPerfDiff",
	"repro/internal/perf.Report.WriteFile": "writes BENCH_sim.json for -benchjson",
	"repro/internal/perf.Unbaselined":      "the targets TestPerfDiff warns have no baseline row",

	// Helpers the tests of several packages share.
	"repro/internal/gpu.SmemOracle.Findings":      "how the tests of gpu, kernels, sasscheck and cmd/sasslint read an attached shared-memory oracle",
	"repro/internal/gpu.SmemOracle.Records":       "the oracle's access log, read by the tests of gpu and kernels",
	"repro/internal/sass.EncodeAll":               "encodes instruction lists in the tests of sass, kernels, turingas and sasscheck",
	"repro/internal/tensor.Tensor.ToFilterLayout": "relayouts filters in the tests of tensor, conv and cudart",
	"repro/internal/tune.StoreKey":                "derives store keys in the tests of tune and serve; the tuner itself calls storeKey",
}

// TestNoTestOnlyExports type-checks every non-test file of this module
// and of the benchmark module (../benchmark, which builds against the
// serving API) and fails on any exported identifier or method declared
// in internal/ that none of those files references. A reference from
// inside the identifier's own declaration (recursion, a method's
// receiver, a type naming itself) does not count. A call through an
// instantiated generic type counts for the generic declaration
// (sched.Flight[V].Do). A method also counts as referenced when its
// type implements an interface, anywhere in the import graph, that has
// the method: fmt calls String, net/http calls ServeHTTP, the server
// calls Executor.Run, none of them by name.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*loaded{},
	}
	var paths []string
	for _, mod := range []struct{ dir, path string }{{".", "repro"}, {"benchmark", "repro/benchmark"}} {
		for _, dir := range goDirs(t, mod.dir) {
			rel, err := filepath.Rel(mod.dir, dir)
			if err != nil {
				t.Fatal(err)
			}
			path := mod.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			if l.dirs[path], err = filepath.Abs(dir); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
	}

	defs := map[string]types.Object{} // exported identifiers of internal/
	used := map[string]bool{}
	var pkgs []*types.Package
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
		p := l.pkgs[path]
		if p == nil {
			continue // no non-test files
		}
		pkgs = append(pkgs, p.pkg)
		if strings.HasPrefix(path, "repro/internal/") {
			for _, obj := range p.info.Defs {
				if k := exportKey(obj); k != "" {
					defs[k] = obj
				}
			}
		}
		for _, f := range p.files {
			recordUses(f, p.info, used)
		}
	}

	ifaces := interfaces(pkgs)
	keys := make([]string, 0, len(defs))
	for k := range defs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, allowed := testOnlyExports[k]
		switch {
		case used[k] || implementsSome(defs[k], ifaces):
			if allowed {
				t.Errorf("testOnlyExports entry %s has a non-test reference now: drop the entry", k)
			}
		case !allowed:
			t.Errorf("%s: exported %s has no non-test reference: delete it, move it into a _test.go file, or unexport it",
				fset.Position(defs[k].Pos()), k)
		}
	}
	for k := range testOnlyExports {
		if defs[k] == nil {
			t.Errorf("testOnlyExports entry %s names no exported identifier of internal/: drop the entry", k)
		}
	}
}

// loader type-checks the packages of this module and of the benchmark
// module from their non-test files, each once, so that all of them share
// one set of objects; the standard library comes from the source
// importer.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string  // import path → directory, for module packages
	pkgs map[string]*loaded // nil for a directory with no non-test files
}

type loaded struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	abs, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, nil
		}
		return p.pkg, nil
	}
	bp, err := build.ImportDir(abs, 0)
	if _, ok := err.(*build.NoGoError); ok {
		l.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &loaded{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = p
	return p.pkg, nil
}

// goDirs lists the directories under root that hold Go files, skipping
// testdata, hidden directories and nested modules.
func goDirs(t *testing.T, root string) []string {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != root {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if dir := filepath.Dir(p); strings.HasSuffix(p, ".go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// exportKey names obj if it is an exported package-level identifier or
// an exported method of a named type, and returns "" otherwise.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return "" // a method of an unnamed interface
			}
			return f.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field, a parameter or a local
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recordUses adds to used every identifier f references, except a
// declaration's references to what it declares itself and a method's
// references in its receiver.
func recordUses(f *ast.File, info *types.Info, used map[string]bool) {
	walk := func(n ast.Node, self map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := exportKey(info.Uses[id]); k != "" && !self[k] {
					used[k] = true
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := map[string]bool{exportKey(info.Defs[d.Name]): true}
			if d.Type != nil {
				walk(d.Type, self)
			}
			if d.Body != nil {
				walk(d.Body, self)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := map[string]bool{}
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[exportKey(info.Defs[s.Name])] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[exportKey(info.Defs[n])] = true
					}
				}
				walk(s, self)
			}
		}
	}
}

// interfaces collects every package-level interface with methods in the
// import graph of pkgs, plus error.
func interfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// implementsSome reports whether obj is a method of a concrete named
// type that implements, through obj, one of ifaces.
func implementsSome(obj types.Object, ifaces []*types.Interface) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if types.IsInterface(t) {
		return false
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, f.Pkg(), f.Name()); m == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
