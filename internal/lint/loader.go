package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
)

// Loader parses and type-checks packages from source, resolving imports
// without any network or pre-built export data: fixture packages through
// the caller's Resolve hook, everything else from GOROOT source via go/build
// (with cgo disabled, so packages like net select their pure-Go variants).
// It backs the linttest fixture harness; cws-vet reads the compiler export
// data go vet hands it instead and does not use it.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its source, for
	// packages go/build cannot find (testdata fixtures). Returning ok=false
	// falls back to go/build.
	Resolve func(path string) (dir string, ok bool)

	ctxt build.Context
	pkgs map[string]*Package
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	err   error
}

// NewLoader returns a loader with an empty cache.
func NewLoader(resolve func(string) (string, bool)) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		Resolve: resolve,
		ctxt:    ctxt,
		pkgs:    make(map[string]*Package),
	}
}

// Import implements types.Importer over the loader's cache.
func (l *Loader) Import(path string) (*types.Package, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Load returns the type-checked package for an import path, loading it and
// its dependencies on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Pkg: types.Unsafe}, nil
	}
	if p, ok := l.pkgs[path]; ok {
		if p.Pkg == nil && p.err == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return p, p.err
	}
	placeholder := &Package{Path: path}
	l.pkgs[path] = placeholder

	dir, err := l.dirFor(path)
	if err != nil {
		placeholder.err = err
		return nil, err
	}
	p, err := l.LoadDir(path, dir)
	if err != nil {
		placeholder.err = err
		return nil, err
	}
	*placeholder = *p
	return placeholder, nil
}

func (l *Loader) dirFor(path string) (string, error) {
	if l.Resolve != nil {
		if dir, ok := l.Resolve(path); ok {
			return dir, nil
		}
	}
	bp, err := l.ctxt.Import(path, "", build.FindOnly)
	if err != nil {
		return "", fmt.Errorf("lint: resolving import %q: %w", path, err)
	}
	return bp.Dir, nil
}

// LoadDir parses and type-checks the (non-test) Go files of one directory as
// the package with the given import path.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: reading package %q in %s: %w", path, dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := &types.Config{
		Importer: l,
		// Dependency sources may use newer language features than the
		// module's go directive; leave GoVersion unset (no restriction).
		Error: nil,
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %q: %w", path, err)
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
