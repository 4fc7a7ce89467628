package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path    string
	Dir     string
	Module  string // root directory of the package's module ("" for fixtures)
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Sources map[string][]byte // file path -> raw source (for directive layout)
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// ExportData maps import paths to compiled export-data files, the
// product of one `go list -export -deps` walk.  It is what lets the
// loader type-check any package of the module (and the test fixtures)
// against real dependency types without golang.org/x/tools.
type ExportData struct {
	files map[string]string
}

// Load enumerates the packages matching patterns (relative to dir, "" =
// current directory), type-checks each in-module, non-test package from
// source against build-cache export data, and returns them sorted by
// import path.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return load(dir, patterns, nil)
}

// load is Load reusing the already type-checked packages in have, keyed
// by import path.
func load(dir string, patterns []string, have map[string]*Package) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exp := &ExportData{files: map[string]string{}}
	var targets []listedPkg
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exp.files[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		if pkg := have[t.ImportPath]; pkg != nil {
			pkgs = append(pkgs, pkg)
			continue
		}
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := TypeCheck(t.ImportPath, t.Dir, files, exp)
		if err != nil {
			return nil, err
		}
		pkg.Module = t.Module.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -e -export -deps -json` over the patterns and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	dec := json.NewDecoder(out)
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}
	return pkgs, nil
}

// TypeCheck parses and type-checks one package from the given source
// files, resolving imports through the export map.  importPath is the
// identity given to the checked package (fixtures use synthetic paths).
func TypeCheck(importPath, dir string, files []string, exp *ExportData) (*Package, error) {
	fset := token.NewFileSet()
	pkg := &Package{Path: importPath, Dir: dir, Fset: fset, Sources: map[string][]byte{}}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Sources[name] = src
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: package %s has no Go files", importPath)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exp.files[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (fixtures may only import packages the module already uses)", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // collect all, report the first below
	}
	tpkg, err := conf.Check(importPath, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
