package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unused keeps code that nothing runs from accumulating: every package-level
// func, method, type, var and const declared in a non-test file must be
// referenced by some identifier in the module. Tests count as uses, and so
// does hostbench, which the loader walks with the rest of the tree. Code
// kept alive only by its own tests passes: deleting that is a judgement.
//
// Exempt: main, init and _; the exported declarations of the root package,
// which are the public API, and the exported methods of the types it
// aliases; and methods that implement an interface declared in the module,
// in a standard-library package the module imports, or error, since a call
// through the interface never names them.
//
// A use is matched to its declaration by position, not by object: a
// package with in-package tests is type-checked twice over the same parsed
// files (once for its importers, once with its tests), so one declaration
// can be two objects.
//
// The rule needs the whole module. Without the root package loaded
// (xoarlint run on one directory) the pass reports nothing, rather than
// every exported declaration whose users were not loaded.

// rootPath is the module's root package, the public API.
const rootPath = "xoar"

func init() {
	Register(&Analyzer{
		Name:      "unused",
		Doc:       "every package-level declaration in non-test source is referenced somewhere in the module (tests and hostbench count)",
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
	used := exemptMethods(pkgs, root)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[obj.Pos()] = true
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
			Message:  fmt.Sprintf("%s %s is referenced nowhere in the module, tests included; delete it", kind, name),
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
	return diags
}

// exemptMethods returns the positions of the methods no identifier needs to
// name: the exported methods of the types the root package aliases, and
// every method that supplies a method of a known interface to a type
// declared in the module.
func exemptMethods(pkgs []*Package, root *Package) map[token.Pos]bool {
	exempt := map[token.Pos]bool{}
	for id, obj := range root.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() ||
			strings.HasSuffix(root.Fset.Position(id.Pos()).Filename, "_test.go") {
			continue
		}
		if named := namedOf(tn.Type()); named != nil {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					exempt[m.Pos()] = true
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
// used: the package-level interfaces declared in the module, the exported
// ones of every standard-library package a module file imports, and error.
func knownInterfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	module := map[string]bool{}
	for _, p := range pkgs {
		module[p.Path] = true
	}
	seen := map[*types.Package]bool{}
	add := func(pkg *types.Package, exportedOnly bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) {
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
				add(obj.Pkg(), false) // the unit's own package
				break
			}
		}
		for _, obj := range p.Info.Uses {
			if pn, ok := obj.(*types.PkgName); ok && !module[pn.Imported().Path()] {
				add(pn.Imported(), true)
			}
		}
	}
	return out
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
