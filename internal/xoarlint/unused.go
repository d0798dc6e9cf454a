package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// unused keeps code that nothing runs from accumulating: every package-level
// func, method, type, var and const declared in a non-test file must be
// referenced by some identifier in a non-test file of the module. hostbench
// counts, since the loader walks it with the rest of the tree; uses in
// _test.go files do not, so code that only its own tests reach is reported.
// A declaration kept for a test, a gated benchmark or an open ROADMAP item
// carries //xoarlint:allow(unused) <reason> instead.
//
// Exempt: main, init and _; the exported declarations of the root package,
// which are the public API, and the exported methods of the types it
// aliases; and methods that implement error or an interface declared in,
// or imported from the standard library by, the module's non-test source,
// since a call through the interface never names them.
//
// The fields of named struct types follow the same rule: a field that no
// non-test code reads is reported, and so is one that non-test code reads
// but never sets, a knob with one value in production. A selector x.f
// reads f, except where it only sets it: as the target of an assignment or
// of ++ and --, in x.f[k] = v, delete(x.f, k), clear(x.f) and
// x.f = append(x.f, …), and as the struct value whose field an assignment
// sets (x.f.g = v). A key of a keyed composite literal sets its field, and
// a positional literal sets them all. &x.f, slicing an array field and
// calling a pointer-receiver method on a field value (x.mu.Lock()) both
// read and set it, and == or != on a struct, or indexing a map by one,
// reads every field. Exempt: embedded fields, _, every field of a struct
// with a tag (encoding/json reads them), and the exported fields of the
// types the root package aliases.
//
// A use is matched to its declaration by position, not by object: a
// package with in-package tests is type-checked twice over the same parsed
// files (once for its importers, once with its tests), so one declaration
// can be two objects.
//
// The rule needs the whole module. Without the root package loaded (a
// fixture loaded with LoadDir) the pass reports nothing, rather than every
// exported declaration whose users were not loaded.

// rootPath is the module's root package, the public API.
const rootPath = "xoar"

func init() {
	Register(&Analyzer{
		Name:      "unused",
		Doc:       "every package-level declaration in non-test source is referenced, and every struct field read and set, from non-test source in the module (hostbench counts, tests do not)",
		RunModule: runUnused,
	})
}

func runUnused(pkgs []*Package) []Diagnostic {
	var root *Package
	for _, p := range pkgs {
		if p.Path == rootPath && p.Name == rootPath {
			root = p
		}
	}
	if root == nil {
		return nil
	}
	exempt := exemptDecls(pkgs, root)
	used := maps.Clone(exempt)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if !inTestFile(p.Fset, id.Pos()) {
				used[obj.Pos()] = true
			}
		}
	}

	var diags []Diagnostic
	report := func(p *Package, id *ast.Ident, kind string) {
		if id.Name == "_" || used[id.Pos()] || (p == root && id.IsExported()) {
			return
		}
		name := id.Name
		if fn, ok := p.Info.Defs[id].(*types.Func); ok {
			name = fn.FullName()
		}
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(id.Pos()),
			Analyzer: "unused",
			Message:  fmt.Sprintf("%s %s is referenced nowhere outside tests; delete it, or keep it with //xoarlint:allow(unused) <reason>", kind, name),
		})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if p.Test[f] {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						report(p, d.Name, "method")
					} else if d.Name.Name != "init" && d.Name.Name != "main" {
						report(p, d.Name, "func")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(p, s.Name, "type")
						case *ast.ValueSpec:
							for _, n := range s.Names {
								report(p, n, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
	return append(diags, unusedFields(pkgs, exempt)...)
}

// unusedFields reports the fields of named struct types that non-test code
// never reads, or reads but never sets.
func unusedFields(pkgs []*Package, exempt map[token.Pos]bool) []Diagnostic {
	u := fieldUses{read: map[token.Pos]bool{}, set: map[token.Pos]bool{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if !p.Test[f] {
				u.scan(p, f)
			}
		}
	}

	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			if p.Test[f] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { return f.Tag != nil }) {
					return true
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						var problem string
						switch pos := id.Pos(); {
						case id.Name == "_" || exempt[pos]:
							continue
						case !u.read[pos]:
							problem = "is read nowhere outside tests"
						case !u.set[pos]:
							problem = "is read outside tests but set only by tests, if at all"
						default:
							continue
						}
						diags = append(diags, Diagnostic{
							Pos:      p.Fset.Position(id.Pos()),
							Analyzer: "unused",
							Message: fmt.Sprintf("field %s.%s.%s %s; delete it, or keep it with //xoarlint:allow(unused) <reason>",
								p.Path, ts.Name.Name, id.Name, problem),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}

// fieldUses records, by declaration position, the fields that non-test
// code reads and the fields it sets.
type fieldUses struct{ read, set map[token.Pos]bool }

// scan records the field reads and sets of one file of p.
func (u fieldUses) scan(p *Package, f *ast.File) {
	setOnly := map[*ast.SelectorExpr]bool{}
	both := map[*ast.SelectorExpr]bool{}
	// markSet marks the selector an assignment sets, and the struct-valued
	// fields and indexed operands it is reached through.
	var markSet func(e ast.Expr)
	markSet = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			setOnly[e] = true
			if _, ok := p.Info.TypeOf(e.X).Underlying().(*types.Struct); ok {
				markSet(e.X)
			}
		case *ast.IndexExpr:
			markSet(e.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				markSet(lhs)
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && builtinCalled(p, n.Rhs[i]) == "append" {
					arg, ok := ast.Unparen(n.Rhs[i].(*ast.CallExpr).Args[0]).(*ast.SelectorExpr)
					if ok && types.ExprString(arg) == types.ExprString(ast.Unparen(lhs)) {
						setOnly[arg] = true
					}
				}
			}
		case *ast.IncDecStmt:
			markSet(n.X)
		case *ast.CallExpr:
			if b := builtinCalled(p, n); b == "delete" || b == "clear" {
				markSet(n.Args[0])
			}
		case *ast.UnaryExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				both[sel] = true
			}
		case *ast.SliceExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				if _, isArray := p.Info.TypeOf(sel).Underlying().(*types.Array); isArray {
					both[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if s := p.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				x, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
				if _, isPtr := p.Info.TypeOf(n.X).Underlying().(*types.Pointer); ok && ptrRecv && !isPtr {
					both[x] = true
				}
			}
		case *ast.CompositeLit:
			st, ok := deref(p.Info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && p.Info.Uses[id] != nil {
						u.set[p.Info.Uses[id].Pos()] = true
					}
				} else {
					u.set[st.Field(i).Pos()] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.readAll(p.Info.TypeOf(n.X))
			}
		case *ast.IndexExpr:
			if m, ok := p.Info.TypeOf(n.X).Underlying().(*types.Map); ok {
				u.readAll(m.Key())
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				pos := s.Obj().Pos()
				u.set[pos] = u.set[pos] || setOnly[sel] || both[sel]
				u.read[pos] = u.read[pos] || !setOnly[sel]
			}
		}
		return true
	})
}

// builtinCalled names the builtin function e calls, or returns "".
func builtinCalled(p *Package, e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
				return b.Name()
			}
		}
	}
	return ""
}

// readAll marks every field of the struct type t, and of the structs it
// holds by value, as read: comparing two values reads them all.
func (u fieldUses) readAll(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.read[t.Field(i).Pos()] = true
			u.readAll(t.Field(i).Type())
		}
	case *types.Array:
		u.readAll(t.Elem())
	}
}

// exemptDecls returns the positions of the methods no identifier needs to
// name and of the fields no code needs to read or set: the exported methods
// and fields of the types the root package aliases, and every method that
// supplies a method of a known interface to a type declared in the module.
func exemptDecls(pkgs []*Package, root *Package) map[token.Pos]bool {
	exempt := map[token.Pos]bool{}
	for id, obj := range root.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() || inTestFile(root.Fset, id.Pos()) {
			continue
		}
		if named := namedOf(tn.Type()); named != nil {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					exempt[m.Pos()] = true
				}
			}
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					exempt[f.Pos()] = true
				}
			}
		}
	}

	ifaces := knownInterfaces(pkgs)
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() || types.IsInterface(tn.Type()) {
				continue
			}
			// The pointer's method set holds every method of the type,
			// promoted ones included.
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			methods := map[string]*types.Func{}
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				methods[methodID(fn)] = fn
			}
			for _, iface := range ifaces {
				if supplies(methods, iface) {
					for i := 0; i < iface.NumMethods(); i++ {
						exempt[methods[methodID(iface.Method(i))].Pos()] = true
					}
				}
			}
		}
	}
	return exempt
}

// knownInterfaces collects the interfaces whose implementations count as
// used: the package-level interfaces declared in the module's non-test
// files, the exported ones of every standard-library package a non-test
// module file imports, and error.
func knownInterfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	module := map[string]bool{}
	for _, p := range pkgs {
		module[p.Path] = true
	}
	seen := map[*types.Package]bool{}
	add := func(fset *token.FileSet, pkg *types.Package, exportedOnly bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) || inTestFile(fset, tn.Pos()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if obj != nil && obj.Pkg() != nil {
				add(p.Fset, obj.Pkg(), false) // the unit's own package
				break
			}
		}
		for id, obj := range p.Info.Uses {
			if pn, ok := obj.(*types.PkgName); ok && !module[pn.Imported().Path()] && !inTestFile(p.Fset, id.Pos()) {
				add(p.Fset, pn.Imported(), true)
			}
		}
	}
	return out
}

// inTestFile reports whether pos lies in a _test.go file.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// supplies reports whether methods, keyed by methodID, has every method of
// iface with the same parameter and result types.
func supplies(methods map[string]*types.Func, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		got, ok := methods[methodID(want)]
		if !ok || sigKey(got) != sigKey(want) {
			return false
		}
	}
	return true
}

// sigKey renders a method's parameter and result types as path-qualified
// strings, without names. The method and the interface may come from
// different type-checks of one package, where types.Identical would see
// two distinct types.
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// methodID keys a method by name, and an unexported one by its package
// path too, as Go's method-set matching does.
func methodID(fn *types.Func) string {
	if fn.Exported() || fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
