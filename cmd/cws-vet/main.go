// Command cws-vet runs the coordsample analysis suite (internal/lint): the
// two analyzers that turn frozen snapshots and typed boundary errors into
// compile-time checks.
//
// It is a vet tool, driven by the go command:
//
//	go vet -vettool=$(which cws-vet) ./...
//
// The go command hands cws-vet one *.cfg JSON file per package, naming the
// source files and the compiler's export data for every import, so the tool
// shares the build cache and per-package parallelism. Diagnostics print as
// file:line:col: message (analyzer); the exit status is 2 when any
// diagnostic fired.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"coordsample/internal/lint"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// No analyzer flags: the suite always runs whole.
		fmt.Println("[]")
	case len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help"):
		usage()
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(checkUnit(args[0]))
	default:
		usage()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which cws-vet) ./...\n\nanalyzers:\n")
	for _, a := range lint.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
}

// printVersion answers `cws-vet -V=full`, which the go command uses to
// fingerprint the tool for its action cache: the reply must change whenever
// the tool's behavior could, so it embeds the executable's own hash.
func printVersion() {
	name := "cws-vet"
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			fmt.Printf("%s version devel comments-go-here buildID=%x\n", name, sha256.Sum256(data))
			return
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=unknown\n", name)
}

// vetConfig is the JSON the go command writes for each package unit — the
// same shape golang.org/x/tools/go/analysis/unitchecker reads.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// checkUnit analyzes the one package a vet config file describes.
func checkUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fatal(fmt.Errorf("parsing %s: %w", cfgPath, err))
	}
	// The go command expects the facts output file to exist even though this
	// suite exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			return fatal(err)
		}
		files = append(files, f)
	}

	// Imports resolve through the compiler export data the go command
	// already built, via ImportMap (as-written path -> canonical path) and
	// PackageFile (canonical path -> export data file).
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(importPath string) (io.ReadCloser, error) {
		canonical, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("no ImportMap entry for %q", importPath)
		}
		file, ok := cfg.PackageFile[canonical]
		if !ok {
			return nil, fmt.Errorf("no PackageFile entry for %q", canonical)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			if importPath == "unsafe" {
				return types.Unsafe, nil
			}
			return compilerImporter.Import(importPath)
		}),
		GoVersion: cfg.GoVersion,
	}
	info := lint.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return fatal(err)
	}
	if n := report(fset, files, pkg, info); n > 0 {
		return 2
	}
	return 0
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// report runs the suite over one package and prints its diagnostics sorted
// by position, returning the count.
func report(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) int {
	var diags []lint.Diagnostic
	lint.RunAnalyzers(fset, files, pkg, info, func(d lint.Diagnostic) {
		diags = append(diags, d)
	})
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return len(diags)
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "cws-vet: %v\n", err)
	return 1
}
