package xoarlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LoadModule walks the module rooted at (or above) dir and loads every
// package under it. Vendored trees, testdata and dot-directories are skipped.
// A type error anywhere in the module fails the load: no pass runs on
// partial type information.
func LoadModule(dir string) ([]*Package, error) {
	l, err := loadModuleTree(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.order...)
}

// LoadDir loads the package units in a single directory under the given
// import path. The path override lets tests present synthetic sources as any
// package identity ("xoar/internal/hv") without living in the module tree.
// Imports of the module containing the working directory are type-checked
// from its source; any other import outside the standard library is an empty
// package. Type errors are ignored.
//
//xoarlint:allow(unused) test support: the analyzer tests load their fixtures with it
func LoadDir(dir, importPath string) ([]*Package, error) {
	root, module, err := findModule(".")
	if err != nil {
		return nil, err
	}
	l := newLoader(module, root)
	l.tolerant = true
	return l.loadDir(dir, importPath)
}

// findModule locates go.mod upward from dir and returns the module root and
// module name.
func findModule(dir string) (root, name string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("xoarlint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("xoarlint: no go.mod found above %s", dir)
		}
	}
}

func importPathFor(root, modName, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modName
	}
	return modName + "/" + filepath.ToSlash(rel)
}

// loader parses package directories and type-checks them in import order.
// It is the types.Importer of every check it runs: a parsed package is
// checked from its non-test files on first import, the standard library
// comes from the toolchain's export data, and anything else is an empty
// package.
type loader struct {
	fset         *token.FileSet
	module, root string
	// tolerant ignores type errors, for fixtures that import what does not
	// exist.
	tolerant bool
	// dirs holds the parsed units of each directory by import path, sorted
	// by package name; order lists the import paths in walk order.
	dirs  map[string][]*Package
	order []string
	// pkgs caches each imported package; nil marks a check in progress.
	pkgs map[string]*types.Package
	// exports maps each imported standard-library path to its export data.
	exports map[string]string
	std     types.Importer
	// err is the first type error, unless the loader is tolerant.
	err error
}

func newLoader(module, root string) *loader {
	return &loader{fset: token.NewFileSet(), module: module, root: root,
		dirs: map[string][]*Package{}, pkgs: map[string]*types.Package{}}
}

// loadModuleTree parses every package directory of the module containing
// dir.
func loadModuleTree(dir string) (*loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(module, root)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		return l.parseDir(path, importPathFor(root, module, path))
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// parseDir parses the .go files of one directory into package units: the
// package proper (with its in-package test files) and, when present, the
// external _test package.
func (l *loader) parseDir(dir, importPath string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	units := map[string]*Package{} // by package name
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fpath := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fpath)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(l.fset, fpath, src, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("xoarlint: %w", err)
		}
		u := units[f.Name.Name]
		if u == nil {
			u = &Package{Name: f.Name.Name, Path: importPath, Fset: l.fset,
				Test: map[*ast.File]bool{}, Src: map[string][]byte{}}
			units[f.Name.Name] = u
		}
		u.Files = append(u.Files, f)
		u.Src[fpath] = src
		if strings.HasSuffix(e.Name(), "_test.go") {
			u.Test[f] = true
		}
	}
	if len(units) == 0 {
		return nil
	}
	var pkgs []*Package
	for _, u := range units {
		pkgs = append(pkgs, u)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Name < pkgs[j].Name })
	l.dirs[importPath] = pkgs
	l.order = append(l.order, importPath)
	return nil
}

// loadDir parses one directory under the given import path, then the module
// packages it imports, and loads its units.
func (l *loader) loadDir(dir, importPath string) ([]*Package, error) {
	if err := l.parseDir(dir, importPath); err != nil {
		return nil, err
	}
	if err := l.parseImports(importPath); err != nil {
		return nil, err
	}
	return l.load(importPath)
}

// parseImports parses, from the module source, the module packages that the
// units of path import, and theirs in turn. An imported package is checked
// without its tests, so only path's own test files add imports.
func (l *loader) parseImports(path string) error {
	seen := map[string]bool{path: true}
	for queue := []string{path}; len(queue) > 0; queue = queue[1:] {
		for _, u := range l.dirs[queue[0]] {
			for _, f := range u.Files {
				if u.Test[f] && queue[0] != path {
					continue
				}
				for _, imp := range f.Imports {
					dep, _ := strconv.Unquote(imp.Path.Value)
					if seen[dep] || !strings.HasPrefix(dep+"/", l.module+"/") {
						continue
					}
					seen[dep] = true
					dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(dep, l.module)))
					if _, err := os.Stat(dir); err != nil {
						continue // not in the module: an empty package
					}
					if err := l.parseDir(dir, dep); err != nil {
						return err
					}
					queue = append(queue, dep)
				}
			}
		}
	}
	return nil
}

// load type-checks the units of the given import paths and returns them.
func (l *loader) load(paths ...string) ([]*Package, error) {
	if err := l.listStd(); err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range paths {
		for _, u := range l.dirs[path] {
			l.checkUnit(u)
			if l.err != nil {
				return nil, l.err
			}
			out = append(out, u)
		}
	}
	return out, nil
}

// stdExports memoizes, for the whole process, what listStd found out: the
// export data file of each standard-library package (unsafe has none), and
// which import paths it looked up. The standard library does not change
// while xoarlint runs, so each path costs at most one go list run per
// process, not one per load. lists counts those runs.
var stdExports = struct {
	sync.Mutex
	files  map[string]string
	listed map[string]bool
	lists  int
}{files: map[string]string{}, listed: map[string]bool{}}

// listStd finds the export data of every standard-library package the
// parsed files import. Paths no earlier load looked up take one go list run
// in GOROOT/src (where go/importer runs its own per-package lookup), so no
// module path is ever built.
func (l *loader) listStd() error {
	l.exports = map[string]string{}
	seen := map[string]bool{}
	var paths []string
	for _, units := range l.dirs {
		for _, u := range units {
			for _, f := range u.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err == nil && l.dirs[path] == nil && !seen[path] {
						seen[path] = true
						paths = append(paths, path)
					}
				}
			}
		}
	}
	if len(paths) == 0 {
		return nil
	}
	stdExports.Lock()
	defer stdExports.Unlock()
	var missing []string
	for _, path := range paths {
		if !stdExports.listed[path] {
			missing = append(missing, path)
		}
	}
	if len(missing) > 0 {
		if err := listExports(missing); err != nil {
			return err
		}
	}
	for _, path := range paths {
		if export, ok := stdExports.files[path]; ok {
			l.exports[path] = export
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(l.exports[path])
	})
	return nil
}

// listExports records in stdExports the export data of those of the given
// import paths that are standard-library packages, with one go list run.
// The caller holds stdExports.
func listExports(paths []string) error {
	sort.Strings(paths)
	goroot := build.Default.GOROOT
	cmd := exec.Command(filepath.Join(goroot, "bin", "go"), append([]string{"list", "-e", "-export",
		"-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}"}, paths...)...)
	cmd.Dir = filepath.Join(goroot, "src")
	cmd.Env = append(os.Environ(), "PWD="+cmd.Dir, "GOROOT="+goroot)
	stdExports.lists++
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return fmt.Errorf("xoarlint: listing standard-library export data: %w", err)
	}
	for _, path := range paths {
		stdExports.listed[path] = true
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, export, ok := strings.Cut(line, " "); ok {
			stdExports.files[path] = export
		}
	}
	return nil
}

// Import implements types.Importer for the checks the loader runs.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.dirs[path] != nil {
		return l.importPkg(path)
	}
	if _, ok := l.exports[path]; ok {
		return l.std.Import(path)
	}
	pkg := l.pkgs[path]
	if pkg == nil {
		pkg = types.NewPackage(path, path[strings.LastIndexByte(path, '/')+1:])
		pkg.MarkComplete()
		l.pkgs[path] = pkg
	}
	return pkg, nil
}

// importPkg checks the non-test files of a parsed package, once. When the
// package has no in-package test files, the same check supplies its unit's
// Info.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	var u *Package
	for _, unit := range l.dirs[path] {
		if !strings.HasSuffix(unit.Name, "_test") {
			u = unit
			break
		}
	}
	if u == nil {
		return nil, fmt.Errorf("%s has only test files", path)
	}
	l.pkgs[path] = nil
	var files []*ast.File
	for _, f := range u.Files {
		if !u.Test[f] {
			files = append(files, f)
		}
	}
	var info *types.Info
	if len(files) == len(u.Files) {
		info = newInfo()
		u.Info = info
	}
	pkg := l.check(path, files, info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkUnit gives a unit its Info: from the import check when the unit is
// exactly the importable package, from a check of all its files otherwise.
func (l *loader) checkUnit(u *Package) {
	if u.Info == nil && len(u.Test) == 0 && !strings.HasSuffix(u.Name, "_test") {
		_, _ = l.importPkg(u.Path) // cannot fail: u is importable, and no check is in progress
	}
	if u.Info != nil {
		return
	}
	// An external test package is checked under its own path, so that the
	// package under test it imports is a different package.
	checkPath := u.Path
	if strings.HasSuffix(u.Name, "_test") {
		checkPath += ".test"
	}
	u.Info = newInfo()
	l.check(checkPath, u.Files, u.Info)
}

// check type-checks one set of files. The first error is kept as the load
// error, unless the loader is tolerant.
func (l *loader) check(path string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: l}
	if l.tolerant {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && !l.tolerant && l.err == nil {
		l.err = fmt.Errorf("xoarlint: %s does not type-check: %w", path, err)
	}
	return pkg
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
