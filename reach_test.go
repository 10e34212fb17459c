package repro

import (
	"go/ast"
	"go/constant"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The reachability core behind TestNoTestOnlyExports: a reference graph
// over the package-level declarations of type-checked source packages,
// walked from a set of roots, and the field reads and writes of the
// declarations it reaches. It knows nothing of how the packages were
// loaded, so TestReachRules drives it from in-memory fixtures.

// srcPkg is one package type-checked from its non-test source files.
type srcPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// newInfo returns the types.Info the graph reads.
func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// roots says which declarations of the source packages are roots of the
// walk. Every init function and every initializer of a blank
// package-level var is one as well.
type roots struct {
	mains func(path string) bool // packages whose main function is a root
	whole func(path string) bool // packages all of whose declarations are roots
	keys  map[string]string      // further roots by objKey, with reasons
}

// deadCode walks the reference graph of pkgs from r and returns the
// package-level funcs, methods, types, vars and consts of the packages
// report selects that no root reaches, in source order. It also returns
// their unset fields, in source order: the exported fields of their
// package-level named struct types that reached code reads but no
// reached code writes, so that every binary reads the zero value. A
// write is a keyed or positional composite literal, an assignment or
// op-assignment to the field or to an element of it, an increment or
// decrement, or taking its address; a default fill, which sets the field
// only where it holds its zero value, is not one. Last come the problems of r.keys: a
// key that names no declaration or field, a key that the other roots
// reach already, and a field key that reached code writes or never
// reads.
func deadCode(fset *token.FileSet, pkgs []*srcPkg, r roots, report func(path string) bool) (dead []types.Object, unset []field, keyErrs []string) {
	g := newGraph(pkgs)
	for _, p := range pkgs {
		path := p.pkg.Path()
		for _, f := range p.files {
			for _, d := range f.Decls {
				g.addDecl(p.info, d, r.whole(path), r.mains(path) && p.pkg.Name() == "main")
			}
		}
	}
	g.walk()

	byKey := map[string]types.Object{}
	for _, obj := range g.decls {
		byKey[objKey(obj)] = obj
	}
	var fields []field
	fieldByKey := map[string]field{}
	for _, p := range pkgs {
		for _, f := range namedFields(p.pkg) {
			fields = append(fields, f)
			fieldByKey[f.key] = f
		}
	}
	keys := make([]string, 0, len(r.keys))
	for k := range r.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, isField := fieldByKey[k]
		switch obj := byKey[k]; {
		case isField: // checked once the walk is done
		case obj == nil:
			keyErrs = append(keyErrs, k+" names no package-level identifier, method or struct field of the module")
		case g.reached[obj]:
			keyErrs = append(keyErrs, k+" is reached without its entry")
		default:
			g.reach(obj)
		}
	}
	g.walk()

	for _, obj := range g.decls {
		if !g.reached[obj] && report(obj.Pkg().Path()) {
			dead = append(dead, obj)
		}
	}
	read, written := g.fieldUses()
	for _, k := range keys {
		f, ok := fieldByKey[k]
		switch {
		case !ok:
		case written[f.v]:
			keyErrs = append(keyErrs, k+" is written by reached code")
		case !read[f.v]:
			keyErrs = append(keyErrs, k+" is read by no reached code")
		}
	}
	for _, f := range fields {
		if _, seam := r.keys[f.key]; read[f.v] && !written[f.v] && !seam && report(f.v.Pkg().Path()) {
			unset = append(unset, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return before(fset, dead[i].Pos(), dead[j].Pos()) })
	sort.Slice(unset, func(i, j int) bool { return before(fset, unset[i].v.Pos(), unset[j].v.Pos()) })
	return dead, unset, keyErrs
}

// before orders two positions by file name, then offset.
func before(fset *token.FileSet, p, q token.Pos) bool {
	a, b := fset.Position(p), fset.Position(q)
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// field is an exported field of a package-level named struct type, with
// its key "pkgpath.Type.Field".
type field struct {
	key string
	v   *types.Var
}

// namedFields returns the exported fields of pkg's package-level named
// struct types.
func namedFields(pkg *types.Package) []field {
	var out []field
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				out = append(out, field{pkg.Path() + "." + name + "." + f.Name(), f})
			}
		}
	}
	return out
}

// graph is the reference graph: an edge runs from a package-level
// declaration to every package-level object of the source packages that
// it names.
type graph struct {
	src     map[*types.Package]bool
	decls   []types.Object // every package-level object of the source packages
	edges   map[types.Object][]types.Object
	reached map[types.Object]bool
	queue   []types.Object

	// The interface rule. ifaces holds, by method name, the interfaces
	// one of whose methods of that name is reached; every
	// standard-library interface is there from the start. types holds
	// the reached concrete named types of the source packages.
	ifaces map[string][]*types.Interface
	types  []*types.Named

	// The field rule: the struct fields each declaration reads and
	// writes, and those of init functions and blank var initializers,
	// which always run.
	fields map[types.Object]fieldAccess
	always []fieldAccess
}

func newGraph(pkgs []*srcPkg) *graph {
	g := &graph{
		src:     map[*types.Package]bool{},
		edges:   map[types.Object][]types.Object{},
		reached: map[types.Object]bool{},
		ifaces:  map[string][]*types.Interface{},
		fields:  map[types.Object]fieldAccess{},
	}
	for _, p := range pkgs {
		g.src[p.pkg] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !g.src[p] {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
						g.addIface(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
	}
	g.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return g
}

// addIface counts every method of it as reached.
func (g *graph) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		g.ifaces[name] = append(g.ifaces[name], it)
	}
}

// addDecl adds the objects d declares and their edges. A declaration of
// a whole-root package is a root, and so is main when isMain is set.
func (g *graph) addDecl(info *types.Info, d ast.Decl, whole, isMain bool) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		refs, fa := g.refs(info, d), fieldAccesses(info, d)
		if d.Recv == nil && d.Name.Name == "init" {
			g.reach(refs...)
			g.always = append(g.always, fa)
			return
		}
		obj := info.Defs[d.Name]
		g.declare(obj, refs, fa, whole || isMain && d.Recv == nil && d.Name.Name == "main")
	case *ast.GenDecl:
		var group []types.Object // the names of a const group that uses iota
		if d.Tok == token.CONST && usesIota(info, d) {
			for _, s := range d.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					if n.Name != "_" {
						group = append(group, info.Defs[n])
					}
				}
			}
		}
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				obj := info.Defs[s.Name]
				g.declare(obj, g.refs(info, s), fieldAccesses(info, s), whole)
				if it, ok := s.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, n := range m.Names {
							g.declare(info.Defs[n], g.refs(info, m.Type), fieldAccess{}, whole)
						}
					}
				}
			case *ast.ValueSpec:
				refs, fa := append(g.refs(info, s), group...), fieldAccesses(info, s)
				for _, n := range s.Names {
					switch {
					case n.Name != "_":
						g.declare(info.Defs[n], refs, fa, whole)
					case d.Tok == token.VAR:
						g.reach(refs...)
						g.always = append(g.always, fa)
					}
				}
			}
		}
	}
}

func (g *graph) declare(obj types.Object, refs []types.Object, fa fieldAccess, root bool) {
	if obj == nil {
		return // a blank type or method name
	}
	g.decls = append(g.decls, obj)
	g.edges[obj] = refs
	g.fields[obj] = fa
	if root {
		g.reach(obj)
	}
}

// usesIota reports whether a const declaration names iota.
func usesIota(info *types.Info, d *ast.GenDecl) bool {
	iota := types.Universe.Lookup("iota")
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == iota {
			found = true
		}
		return !found
	})
	return found
}

// refs returns the package-level objects of the source packages that n
// names, each once. A use of a generic instantiation counts for its
// origin.
func (g *graph) refs(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj == nil || !g.src[obj.Pkg()] || seen[obj] {
			return true
		}
		if _, ok := obj.(*types.Func); !ok && obj.Parent() != obj.Pkg().Scope() {
			return true // a field, a parameter or a local
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// fieldAccess is what one declaration does with struct fields, each
// field as its origin.
type fieldAccess struct{ reads, writes []*types.Var }

// fieldAccesses returns the struct fields n reads and writes. A
// selector is a write on the left of an assignment, op-assignment,
// increment or decrement, or under &, and so is every field selector
// between there and the root of that operand (x.F.G = v and
// x.F[i] += d both write F); a field a composite literal sets, by key
// or by position, is a write too. A default fill is not a write: its
// assignment only replaces a zero value, so a field that nothing else
// sets still holds what the fill picks in every binary. Every other use
// is a read.
func fieldAccesses(info *types.Info, n ast.Node) fieldAccess {
	var fa fieldAccess
	written := map[*ast.Ident]bool{}
	fills := map[*ast.AssignStmt]bool{}
	operand := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				written[x.Sel] = true
				e = x.X
			default:
				return
			}
		}
	}
	// ast.Inspect visits a statement or literal before the identifiers
	// under it, so they are marked before they are classified.
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if a := defaultFill(info, n); a != nil {
				fills[a] = true
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !fills[n] {
				for _, e := range n.Lhs {
					operand(e)
				}
			}
		case *ast.IncDecStmt:
			operand(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				operand(n.X)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem() // an elided &T in a literal of []*T
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					written[kv.Key.(*ast.Ident)] = true
				} else {
					fa.writes = append(fa.writes, st.Field(i).Origin())
				}
			}
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Var); ok && f.IsField() {
				if written[n] {
					fa.writes = append(fa.writes, f.Origin())
				} else {
					fa.reads = append(fa.reads, f.Origin())
				}
			}
		}
		return true
	})
	return fa
}

// defaultFill returns the assignment of an if statement that fills a
// default, `if x.F == z { x.F = v }` with no init or else, where z is
// nil or a constant zero, == may be <=, and the condition may be
// len(x.F) == 0. It returns nil for any other statement.
func defaultFill(info *types.Info, n *ast.IfStmt) *ast.AssignStmt {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || n.Init != nil || n.Else != nil || len(n.Body.List) != 1 || cond.Op != token.EQL && cond.Op != token.LEQ || !isZero(info, cond.Y) {
		return nil
	}
	a, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 {
		return nil
	}
	x := cond.X
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 && info.Uses[identOf(call.Fun)] == types.Universe.Lookup("len") {
		x = call.Args[0]
	}
	if _, ok := a.Lhs[0].(*ast.SelectorExpr); !ok || !sameOperand(info, x, a.Lhs[0]) {
		return nil
	}
	return a
}

// identOf returns e as an identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// isZero reports whether e is nil or a constant zero number or empty
// string.
func isZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	switch v := tv.Value; {
	case tv.IsNil():
		return true
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Int || v.Kind() == constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}

// sameOperand reports whether a and b are the same chain of field
// selectors on the same variable.
func sameOperand(info *types.Info, a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && info.Uses[a] != nil && info.Uses[a] == info.Uses[b]
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && info.Uses[a.Sel] == info.Uses[b.Sel] && sameOperand(info, a.X, b.X)
	}
	return false
}

// fieldUses returns the fields that reached code reads and writes.
func (g *graph) fieldUses() (read, written map[*types.Var]bool) {
	read, written = map[*types.Var]bool{}, map[*types.Var]bool{}
	add := func(fa fieldAccess) {
		for _, f := range fa.reads {
			read[f] = true
		}
		for _, f := range fa.writes {
			written[f] = true
		}
	}
	for _, fa := range g.always {
		add(fa)
	}
	for obj := range g.reached {
		add(g.fields[obj])
	}
	return read, written
}

func (g *graph) reach(objs ...types.Object) {
	for _, obj := range objs {
		if !g.reached[obj] {
			g.reached[obj] = true
			g.queue = append(g.queue, obj)
		}
	}
}

// walk reaches everything the reached objects reach, through edges and
// through the interface rule, to a fixpoint.
func (g *graph) walk() {
	for len(g.queue) > 0 {
		for len(g.queue) > 0 {
			obj := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			g.reach(g.edges[obj]...)
			switch obj := obj.(type) {
			case *types.Func:
				recv := obj.Type().(*types.Signature).Recv()
				if recv == nil {
					break
				}
				if n, ok := recv.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					break
				}
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					g.ifaces[obj.Name()] = append(g.ifaces[obj.Name()], it)
				}
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					g.types = append(g.types, n)
				}
			}
		}
		g.implement()
	}
}

// implement applies the interface rule: a method is reached when a
// reached concrete type implements, through it, an interface whose
// method of that name is reached.
func (g *graph) implement() {
	for _, t := range g.types {
		ptr := types.NewPointer(t)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func).Origin()
			if g.reached[m] || !g.src[m.Pkg()] {
				continue
			}
			for _, it := range g.ifaces[m.Name()] {
				if types.Implements(t, it) || types.Implements(ptr, it) {
					g.reach(m)
					break
				}
			}
		}
	}
}

// testingImports returns the position of every import of package
// testing in the non-test files of pkgs, in package order. What imports
// it is code that only a test can use, and it belongs in the _test.go
// files of that test's package, which no binary links.
func testingImports(fset *token.FileSet, pkgs []*srcPkg) []token.Position {
	var out []token.Position
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"testing"` {
					out = append(out, fset.Position(imp.Pos()))
				}
			}
		}
	}
	return out
}

// objKey names a package-level object as "pkgpath.Name" and a method as
// "pkgpath.Type.Method".
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return f.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + f.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// kindOf names obj's kind for a report.
func kindOf(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// TestReachRules pins each rule of the graph, of the field rule and of
// the testing-import rule on a fixture: a library package
// fix/internal/a, which is reported, and a command fix/cmd/app, whose
// main is the root.
func TestReachRules(t *testing.T) {
	const opts = "type Opts struct{ N int }\nfunc Use(o Opts) int { return o.N }"
	for _, c := range []struct {
		name, lib, app string
		dead           []string          // objKeys and field keys under fix/internal/a
		seams          map[string]string // testOnlyExports entries under fix/internal/a
		stale          []string          // the problems reported of seams
		testing        []string          // the fixture packages reported for importing testing
	}{{
		name: "an unused unexported func",
		lib:  "func Used() {}\nfunc unused() {}",
		app:  "a.Used()",
		dead: []string{"unused"},
	}, {
		name: "an exported func only an unused func calls",
		lib:  "func Used() {}\nfunc unused() { Chained() }\nfunc Chained() {}",
		app:  "a.Used()",
		dead: []string{"Chained", "unused"},
	}, {
		name: "a method only a test calls",
		lib:  "type T struct{}\nfunc (T) Used() {}\nfunc (T) TestOnly() {}",
		app:  "a.T{}.Used()",
		dead: []string{"T.TestOnly"},
	}, {
		name: "a generic type's method only a test calls",
		lib:  "type Flight[V any] struct{ v V }\nfunc (f *Flight[V]) Do() V { return f.v }\nfunc (f *Flight[V]) TestOnly() V { return f.v }",
		app:  "var f a.Flight[int]\n_ = f.Do()",
		dead: []string{"Flight.TestOnly"},
	}, {
		name: "a method fmt.Stringer keeps",
		lib:  "type Name int\nfunc (Name) String() string { return \"n\" }",
		app:  "fmt.Println(a.Name(1))",
	}, {
		name: "a method a module interface keeps while its method is called",
		lib:  "type Runner interface{ Run() }\ntype job struct{}\nfunc (job) Run() {}\nfunc (job) Other() {}\nfunc New() Runner { return job{} }",
		app:  "a.New().Run()",
		dead: []string{"job.Other"},
	}, {
		name: "a module interface whose method is not called",
		lib:  "type Runner interface{ Run() }\ntype job struct{}\nfunc (job) Run() {}\nfunc New() Runner { return job{} }",
		app:  "_ = a.New()",
		dead: []string{"Runner.Run", "job.Run"},
	}, {
		name: "an iota group's unused zero member",
		lib:  "type Kind uint8\nconst (\n\tkindOther Kind = iota\n\tKindA\n)\nconst (\n\tunset = 1\n\tSet = 2\n)",
		app:  "_, _ = a.KindA, a.Set",
		dead: []string{"unset"},
	}, {
		name: "a blank var initializer",
		lib:  "func Used() {}\nvar _ = register()\nfunc register() int { return 1 }",
		app:  "a.Used()",
	}, {
		name: "a field only a test sets",
		lib:  opts,
		app:  "_ = a.Use(a.Opts{})",
		dead: []string{"Opts.N"},
	}, {
		name: "a field a keyed literal sets",
		lib:  opts,
		app:  "_ = a.Use(a.Opts{N: 2})",
	}, {
		name: "a field a positional literal sets",
		lib:  opts,
		app:  "_ = a.Use(a.Opts{2})",
	}, {
		name: "a field an assignment sets",
		lib:  opts,
		app:  "var o a.Opts\no.N = 2\n_ = a.Use(o)",
	}, {
		name: "a field an op-assignment to an element sets",
		lib:  "type Hist struct{ Counts []int }\nfunc Total(h Hist) int { return h.Counts[0] }",
		app:  "h := a.Hist{}\nh.Counts[0] += 2\n_ = a.Total(h)",
	}, {
		name: "a field an increment sets",
		lib:  opts,
		app:  "var o a.Opts\no.N++\n_ = a.Use(o)",
	}, {
		name: "a field whose address is taken",
		lib:  opts,
		app:  "var o a.Opts\np := &o.N\n*p = 2\n_ = a.Use(o)",
	}, {
		name: "a field only a default fill sets",
		lib:  "type Opts struct{ N int }\nfunc Use(o Opts) int {\n\tif o.N == 0 {\n\t\to.N = 4\n\t}\n\treturn o.N\n}",
		app:  "_ = a.Use(a.Opts{})",
		dead: []string{"Opts.N"},
	}, {
		name: "fields only <= 0, nil and len() == 0 default fills set",
		lib:  "type Opts struct {\n\tN int\n\tP *int\n\tS []int\n}\nfunc Use(o *Opts) int {\n\tif o.N <= 0 {\n\t\to.N = 4\n\t}\n\tif o.P == nil {\n\t\to.P = new(int)\n\t}\n\tif len(o.S) == 0 {\n\t\to.S = []int{1}\n\t}\n\treturn o.N + *o.P + o.S[0]\n}",
		app:  "_ = a.Use(&a.Opts{})",
		dead: []string{"Opts.N", "Opts.P", "Opts.S"},
	}, {
		name: "a field a default fill and a keyed literal set",
		lib:  "type Opts struct{ N int }\nfunc Use(o Opts) int {\n\tif o.N == 0 {\n\t\to.N = 4\n\t}\n\treturn o.N\n}",
		app:  "_ = a.Use(a.Opts{N: 2})",
	}, {
		name: "a conditional assignment that is no default fill",
		lib:  "type Opts struct{ N, M int }\nfunc Use(o Opts) int {\n\tif o.N == 1 {\n\t\to.N = 4\n\t}\n\tif o.M == 0 {\n\t\to.N = 4\n\t}\n\treturn o.N + o.M\n}",
		app:  "_ = a.Use(a.Opts{})",
		dead: []string{"Opts.M"},
	}, {
		name: "a field only an unreached func sets",
		lib:  opts + "\nfunc unused() Opts { return Opts{N: 1} }",
		app:  "_ = a.Use(a.Opts{})",
		dead: []string{"Opts.N", "unused"},
	}, {
		name: "a field of an unnamed struct",
		lib:  "var Cfg struct{ N int }\nfunc Use() int { return Cfg.N }",
		app:  "_ = a.Use()",
	}, {
		name:  "a test seam",
		lib:   opts,
		app:   "_ = a.Use(a.Opts{})",
		seams: map[string]string{"fix/internal/a.Opts.N": "a test sets it"},
	}, {
		name:  "a test seam that reached code sets",
		lib:   opts,
		app:   "_ = a.Use(a.Opts{N: 2})",
		seams: map[string]string{"fix/internal/a.Opts.N": "a test sets it"},
		stale: []string{"fix/internal/a.Opts.N is written by reached code"},
	}, {
		name:    "a non-test file that imports testing",
		lib:     "import \"testing\"\nfunc Bench(b *testing.B) { b.Fatal() }",
		app:     "a.Bench(nil)",
		testing: []string{"fix/internal/a"},
	}} {
		t.Run(c.name, func(t *testing.T) {
			dead, stale, importers := reachFixture(t, map[string]string{
				"fix/internal/a": "package a\n" + c.lib,
				"fix/cmd/app":    "package main\nimport (\n\t\"fmt\"\n\t\"fix/internal/a\"\n)\nvar _ = fmt.Sprint\nfunc main() {\n" + c.app + "\n}",
			}, c.seams)
			var want []string
			for _, k := range c.dead {
				want = append(want, "fix/internal/a."+k)
			}
			sort.Strings(dead)
			if !reflect.DeepEqual(dead, want) {
				t.Errorf("dead = %v, want %v", dead, want)
			}
			if !reflect.DeepEqual(stale, c.stale) {
				t.Errorf("stale entries = %v, want %v", stale, c.stale)
			}
			if !reflect.DeepEqual(importers, c.testing) {
				t.Errorf("packages importing testing = %v, want %v", importers, c.testing)
			}
		})
	}
}

// reachFixture type-checks the fixture packages (import path → source)
// from a temporary directory and returns the objKeys and field keys
// deadCode reports under fix/internal, the problems of keys, and the
// packages testingImports reports.
func reachFixture(t *testing.T, srcs map[string]string, keys map[string]string) (dead, keyErrs, importers []string) {
	fset := token.NewFileSet()
	l := newSrcImporter(fset, importer.ForCompiler(fset, "gc", nil))
	dir := t.TempDir()
	pathOf := map[string]string{} // file name → import path
	for path, src := range srcs {
		name := filepath.Join(dir, strings.ReplaceAll(path, "/", "_")+".go")
		if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		l.files[path] = []string{name}
		pathOf[name] = path
	}
	pkgs, err := l.checkAll()
	if err != nil {
		t.Fatal(err)
	}
	objs, unset, keyErrs := deadCode(fset, pkgs, roots{mains: under("fix/cmd"), whole: under("fix/benchmark"), keys: keys}, under("fix/internal"))
	for _, obj := range objs {
		dead = append(dead, objKey(obj))
	}
	for _, f := range unset {
		dead = append(dead, f.key)
	}
	for _, pos := range testingImports(fset, pkgs) {
		importers = append(importers, pathOf[pos.Filename])
	}
	return dead, keyErrs, importers
}
