package lint

import (
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// DeadExportAnalyzer flags exported identifiers of internal/ packages
// that no non-test file uses.  Such an export is code kept alive only by
// its own tests: either delete it, move it into the _test.go file that
// needs it, or, when tests of several packages share it, mark the
// declaration (or the whole package clause) //nob:testhook <reason>.
//
// It is a whole-program analysis.  Uses are read from every package of
// the analyzed packages' modules and of the modules nested under them
// (bench/), loaded like the packages themselves, so test files never
// count.  Two kinds of method are exempt because their callers are
// invisible to Uses: a method whose name and signature match a method of
// an interface anywhere in the loaded import graph (heap.Interface,
// json.Marshaler, core.TraceSink …), and a method of a type that a
// package outside internal/ re-exports by alias (the facade's VP).
var DeadExportAnalyzer = &Analyzer{
	Name:       "deadexport",
	Doc:        "an exported identifier or method of an internal/ package must be used by a non-test file",
	RunProgram: runDeadExport,
}

const testhook = "nob:testhook"

func runDeadExport(p *Program) {
	if len(p.Pkgs) == 0 {
		return
	}
	all, err := withModules(p.Pkgs)
	if err != nil {
		pkg := p.Pkgs[0]
		p.Reportf(pkg, pkg.Files[0].Package, "loading uses: %v", err)
		return
	}
	used := map[string]bool{}
	for _, pkg := range all {
		collectUses(pkg, used)
	}
	ifaces := interfaceMethods(all)
	aliased := aliasedTypes(all)
	for _, pkg := range p.Pkgs {
		if isInternal(pkg.Path) {
			checkExports(p, pkg, used, ifaces, aliased)
		}
	}
}

// isInternal reports whether an import path has an internal element.
func isInternal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// checkExports reports the exported declarations of pkg that are dead.
func checkExports(p *Program, pkg *Package, used, ifaces, aliased map[string]bool) {
	packageHooked := false
	for _, f := range pkg.Files {
		packageHooked = hooked(p, pkg, f.Name, f.Doc) || packageHooked
	}
	if packageHooked {
		return
	}
	dead := func(id *ast.Ident, docs ...*ast.CommentGroup) bool {
		return !hooked(p, pkg, id, docs...) && id.IsExported() && !used[objKey(pkg.Info.Defs[id])]
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !dead(d.Name, d.Doc) {
					continue
				}
				fn := pkg.Info.Defs[d.Name].(*types.Func)
				recv := fn.Signature().Recv()
				if recv == nil {
					p.Reportf(pkg, d.Name.Pos(), "%s.%s is used by no non-test file", pkg.Types.Name(), d.Name.Name)
					continue
				}
				if ifaces[methodKey(fn)] || aliased[typeKey(recv.Type())] {
					continue
				}
				p.Reportf(pkg, d.Name.Pos(), "%s.(%s).%s is used by no non-test file", pkg.Types.Name(),
					types.TypeString(recv.Type(), types.RelativeTo(pkg.Types)), d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					var doc *ast.CommentGroup
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names, doc = []*ast.Ident{s.Name}, s.Doc
					case *ast.ValueSpec:
						names, doc = s.Names, s.Doc
					}
					for _, id := range names {
						if dead(id, d.Doc, doc) {
							p.Reportf(pkg, id.Pos(), "%s.%s is used by no non-test file", pkg.Types.Name(), id.Name)
						}
					}
				}
			}
		}
	}
}

// hooked reports whether one of docs carries //nob:testhook.  A
// directive that gives no reason is itself reported, at id.
func hooked(p *Program, pkg *Package, id *ast.Ident, docs ...*ast.CommentGroup) bool {
	for _, g := range docs {
		if !commentGroupHasDirective(g, testhook) {
			continue
		}
		for _, c := range g.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == testhook {
				p.Reportf(pkg, id.Pos(), "//%s on %s gives no reason: write //%s <why tests need it>", testhook, id.Name, testhook)
			}
		}
		return true
	}
	return false
}

// withModules returns pkgs together with every other package of their
// modules and of the modules nested under those, reusing the packages
// already loaded.  Packages without a module (fixtures) come back alone.
func withModules(pkgs []*Package) ([]*Package, error) {
	have := map[string]*Package{}
	var dirs []string
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		have[pkg.Path] = pkg
		if pkg.Module == "" || seen[pkg.Module] {
			continue
		}
		seen[pkg.Module] = true
		nested, err := nestedModules(pkg.Module)
		if err != nil {
			return nil, err
		}
		dirs = append(append(dirs, pkg.Module), nested...)
	}
	if len(dirs) == 0 {
		return pkgs, nil
	}
	var all []*Package
	for _, dir := range dirs {
		loaded, err := load(dir, []string{"./..."}, have)
		if err != nil {
			return nil, err
		}
		all = append(all, loaded...)
	}
	return all, nil
}

// nestedModules lists the directories under root, outside testdata and
// hidden directories, that hold a go.mod of their own.
func nestedModules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// collectUses adds the key of every object pkg's files use to used.  A
// function's uses of itself (recursion) and a method's receiver type do
// not count.
func collectUses(pkg *Package, used map[string]bool) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			self := ""
			var recv ast.Node
			if fd, ok := d.(*ast.FuncDecl); ok {
				self, recv = objKey(pkg.Info.Defs[fd.Name]), fd.Recv
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == recv {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if k := objKey(pkg.Info.Uses[id]); k != "" && k != self {
						used[k] = true
					}
				}
				return true
			})
		}
	}
}

// objKey names a package-level object or a method across the separately
// type-checked packages (each holds its own copy of its imports, so
// object identity does not carry over); "" for anything else.
func objKey(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	if fn, ok := o.(*types.Func); ok {
		if recv := fn.Origin().Signature().Recv(); recv != nil {
			return typeKey(recv.Type()) + "." + fn.Name()
		}
	}
	if o.Parent() != o.Pkg().Scope() {
		return ""
	}
	return o.Pkg().Path() + "." + o.Name()
}

// typeKey names the (pointer to a) named type t, or returns "".
func typeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// methodKey is a method's name and signature, with types qualified by
// package path and parameter names dropped.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	key := fn.Name() + "("
	for i := 0; i < sig.Params().Len(); i++ {
		key += types.TypeString(sig.Params().At(i).Type(), qual) + ","
	}
	key += ")"
	for i := 0; i < sig.Results().Len(); i++ {
		key += types.TypeString(sig.Results().At(i).Type(), qual) + ","
	}
	if sig.Variadic() {
		key += "..."
	}
	return key
}

// interfaceMethods collects the methodKey of every method of every
// package-level interface type in the import graph of pkgs, and of the
// predeclared error.
func interfaceMethods(pkgs []*Package) map[string]bool {
	keys := map[string]bool{}
	add := func(obj types.Object) {
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			keys[methodKey(iface.Method(i))] = true
		}
	}
	add(types.Universe.Lookup("error"))
	// An import's export data may hold only part of a package, so each
	// copy is walked, not each path.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if obj, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(obj)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return keys
}

// aliasedTypes collects the typeKey of every type that a package outside
// internal/ re-exports by alias.
func aliasedTypes(pkgs []*Package) map[string]bool {
	keys := map[string]bool{}
	for _, pkg := range pkgs {
		if isInternal(pkg.Path) {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && obj.IsAlias() {
				if k := typeKey(obj.Type()); k != "" {
					keys[k] = true
				}
			}
		}
	}
	return keys
}
