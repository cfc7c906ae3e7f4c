package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked source package.
type Package struct {
	Path  string // import path ("repro/internal/pg")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go command:
// module-local import paths resolve to source directories under
// ModuleDir, ExtraSrc roots resolve GOPATH-style (root/<import path>,
// used for analysistest-like fixture trees), and everything else falls
// back to the standard library compiled... from source via go/importer's
// "source" compiler, which works offline against GOROOT.
//
// Test files (_test.go) are never loaded: the suite lints production
// code, and fixtures that intentionally violate invariants live under
// testdata where the go tool ignores them anyway.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string // module path from go.mod; "" disables module resolution
	ModuleDir  string
	ExtraSrc   []string // fixture roots searched before the module

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
}

// NewLoader returns a loader rooted at moduleDir. The module path is
// read from moduleDir/go.mod when present.
func NewLoader(moduleDir string, extraSrc ...string) *Loader {
	l := &Loader{
		Fset:      token.NewFileSet(),
		ModuleDir: moduleDir,
		ExtraSrc:  extraSrc,
		pkgs:      map[string]*Package{},
		loading:   map[string]bool{},
	}
	if moduleDir != "" {
		l.ModulePath = modulePath(filepath.Join(moduleDir, "go.mod"))
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	return l
}

// modulePath extracts the module path from a go.mod file ("" if the
// file is unreadable or malformed).
func modulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Load returns the package with the given import path, loading it (and
// its transitive imports) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.resolveDir(path)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve import %q to a source directory", path)
	}
	return l.loadDir(path, dir)
}

// resolveDir maps an import path to a source directory via the fixture
// roots, then the module.
func (l *Loader) resolveDir(path string) (string, bool) {
	for _, root := range l.ExtraSrc {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir, hasGoFiles(l.ModuleDir)
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
			return dir, hasGoFiles(dir)
		}
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir under the given
// import path.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the Loader to types.ImporterFrom.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if dir, ok := l.resolveDir(path); ok {
		p, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// FuncDoc returns the doc comment of fn when it was declared in a
// package this loader parsed from source ("" otherwise). Implements
// DocSource.
func (l *Loader) FuncDoc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	p, ok := l.pkgs[fn.Pkg().Path()]
	if !ok {
		return ""
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Pos() != fn.Pos() {
				continue
			}
			if fd.Doc == nil {
				return ""
			}
			return fd.Doc.Text()
		}
	}
	return ""
}

// ModulePackages returns the import paths of every package under the
// module root that contains non-test Go files, skipping testdata,
// hidden directories, vendor and nested modules (any subdirectory with
// a go.mod of its own), as the go tool's "./..." does. This is
// hcalint's "./..." expansion.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.ModulePath == "" {
		return nil, fmt.Errorf("analysis: loader has no module")
	}
	var out []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != l.ModuleDir {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
