package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadLint flags package-level declarations under internal/ — funcs,
// methods, types, vars and consts — that no non-test file of the module
// references. Code only tests reach is not part of the program: it
// costs review and upkeep, and its tests pin behaviour nothing ships.
// Such code is deleted, moved into a _test.go file, or kept with a
// `//gensched:allow deadlint <why>` naming the test or benchmark it
// serves (a reference oracle, a benchmark-only driver).
//
// The analyzer errs towards silence: references are counted over every
// non-test file of the module, whatever packages were asked for, and a
// method counts as used when any interface the loaded packages can see
// has a method of its name, or when the standard library calls it by
// name (stdlibMethods). Missing a dead declaration is acceptable;
// reporting a live one is not.
var DeadLint = &Analyzer{
	Name: "deadlint",
	Doc:  "flag package-level declarations under internal/ that no non-test file in the module references",
	Run:  runDeadLint,
}

// stdlibMethods are method names the standard library calls through
// anonymous interface assertions (errors.Is/As/Unwrap, fmt's verbs),
// which no named interface in scope declares.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
}

// Refs indexes what the module's non-test files reference: every
// package-level object and method by declKey, and the method names of
// every interface type the loaded packages can see.
type Refs struct {
	used         map[string]bool
	ifaceMethods map[string]bool
}

// NewRefs indexes the references made by pkgs, which must be loaded
// from non-test files only.
func NewRefs(pkgs []*Package) *Refs {
	r := &Refs{used: map[string]bool{}, ifaceMethods: map[string]bool{}}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				r.addUses(pkg.Info, decl)
			}
		}
		for _, tv := range pkg.Info.Types {
			r.addIface(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				r.addIface(obj.Type())
			}
		}
		r.addScopes(pkg.Types, seen)
	}
	return r
}

// addUses records the references one top-level declaration makes,
// except its references to itself: a recursive func, or a type named
// only in its own methods' receivers, is not kept alive by them. Each
// spec of a grouped declaration is its own unit, so a const group whose
// members refer to each other keeps them alive.
func (r *Refs) addUses(info *types.Info, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		r.addUnit(info, d, d.Recv, d.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			r.addUnit(info, spec, nil, specNames(spec)...)
		}
	}
}

// addUnit records the references node makes to anything but the
// objects names declares, skipping the subtree skip (a receiver).
func (r *Refs) addUnit(info *types.Info, node, skip ast.Node, names ...*ast.Ident) {
	self := map[string]bool{}
	for _, id := range names {
		if obj := info.Defs[id]; obj != nil && tracked(obj) {
			self[declKey(obj)] = true
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if skip != nil && n == skip {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && tracked(obj) {
			if k := declKey(obj); !self[k] {
				r.used[k] = true
			}
		}
		return true
	})
}

// addIface records the method names of t when it is an interface.
func (r *Refs) addIface(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		r.ifaceMethods[iface.Method(i).Name()] = true
	}
}

// addScopes records the interfaces declared at package level in pkg
// and everything it imports, transitively: the standard library's
// sort.Interface, io.Writer, json.Marshaler and the like.
func (r *Refs) addScopes(pkg *types.Package, seen map[*types.Package]bool) {
	if pkg == nil || seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			r.addIface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		r.addScopes(imp, seen)
	}
}

// live reports whether obj, declared in a loaded package, is referenced.
func (r *Refs) live(obj types.Object) bool {
	if r.used[declKey(obj)] {
		return true
	}
	if fn, ok := obj.(*types.Func); ok && isMethod(fn) {
		return r.ifaceMethods[fn.Name()] || stdlibMethods[fn.Name()]
	}
	return false
}

// tracked reports whether obj is a package-level object or a method:
// the declarations deadlint judges.
func tracked(obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && isMethod(fn) {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

func isMethod(fn *types.Func) bool {
	return fn.Type().(*types.Signature).Recv() != nil
}

// declKey names obj the same way from every package that refers to it:
// "path.Name" for package-level objects, "path.Recv.Name" for methods.
// Package paths agree because Load type-checks each package under its
// import path, the path its importers see.
func declKey(obj types.Object) string {
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return path + "." + named.Obj().Name() + "." + fn.Name()
			}
			return path + ".?." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

// specNames lists the names a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

func runDeadLint(pass *Pass) {
	if !pass.Zone.DeadChecked() {
		return
	}
	refs := pass.Refs
	check := func(id *ast.Ident, what string) {
		obj := pass.Info.Defs[id]
		if id.Name == "_" || obj == nil || refs.live(obj) || pass.Allowed(id.Pos()) {
			return
		}
		pass.Reportf(id.Pos(), "%s %s is referenced by no non-test file in the module: delete it, move it into a _test.go file, or keep it with //gensched:allow deadlint <why>", what, id.Name)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
					continue
				}
				what := "func"
				if d.Recv != nil {
					what = "method"
				}
				check(d.Name, what)
			case *ast.GenDecl:
				checkGenDecl(pass, d, refs, check)
			}
		}
	}
}

// checkGenDecl judges the specs of one type, var or const declaration.
// An iota group is judged as one: deleting an unused member would
// renumber the members after it.
func checkGenDecl(pass *Pass, d *ast.GenDecl, refs *Refs, check func(*ast.Ident, string)) {
	if d.Tok == token.IMPORT {
		return
	}
	if d.Tok == token.CONST && usesIota(d) {
		for _, spec := range d.Specs {
			for _, id := range specNames(spec) {
				if obj := pass.Info.Defs[id]; obj != nil && refs.live(obj) {
					return
				}
			}
		}
	}
	for _, spec := range d.Specs {
		for _, id := range specNames(spec) {
			check(id, d.Tok.String()) // "type", "var" or "const"
		}
	}
}

// usesIota reports whether a const declaration enumerates with iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	for _, spec := range d.Specs {
		for _, v := range spec.(*ast.ValueSpec).Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					found = true
				}
				return !found
			})
		}
	}
	return found
}
