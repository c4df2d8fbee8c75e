// Command urbvet runs the repo's static-analysis suite
// (internal/analysis): exhaustive wire.Kind switches, determinism
// hygiene, guarded-by conventions, zero-valued deviation knobs,
// hot-path allocation discipline, no writes through a shared message
// body and none through a shared failure detector view. See DESIGN.md
// §12 for the invariant table.
//
// It speaks two protocols:
//
//   - Standalone: `urbvet [dir|dir/...]...` (default ./...) loads the
//     enclosing module from source and prints findings. Exit 2 on
//     findings, 1 on load errors, 0 when clean.
//
//   - Vet tool: `go vet -vettool=$(which urbvet) ./...`. The go
//     command invokes the tool once per package with a JSON config
//     file argument ending in .cfg, after probing `-V=full` (version
//     stamp for its cache key) and `-flags` (supported flags; none).
//     Packages are type-checked from the compiler export data the go
//     command already built, so this path needs no source re-loading.
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
	"path/filepath"
	"strings"

	"anonurb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	jsonOut := false
	var operands []string
	for _, a := range args {
		switch {
		case a == "-V=full":
			printVersion()
			return 0
		case a == "-flags":
			// The suite exposes no flags; go vet probes this list to
			// decide what it may pass through.
			fmt.Println("[]")
			return 0
		case a == "-json":
			jsonOut = true
		case strings.HasPrefix(a, "-"):
			// Tolerate unknown flags (go vet may grow new probes);
			// they cannot change what the suite checks.
		default:
			operands = append(operands, a)
		}
	}
	if len(operands) == 1 && strings.HasSuffix(operands[0], ".cfg") {
		return runUnit(operands[0], jsonOut)
	}
	return runStandalone(operands, jsonOut)
}

// printVersion emits the stamp `go vet` hashes into its cache key: the
// conventional "name version ... buildID=<hash of executable>" line, so
// rebuilding the tool invalidates cached vet results.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// vetConfig is the JSON the go command writes for each package when a
// vettool is installed (cmd/go/internal/work's vet.cfg).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the single package described by a go vet config
// file. Imports resolve through the export data the go command lists in
// the config, so no source outside the package is touched.
func runUnit(cfgPath string, jsonOut bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "urbvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite carries no cross-package facts, but the go command
	// caches and feeds back whatever the tool writes here — the file
	// must exist even when empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is already canonical (post-ImportMap).
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor(cfg.Compiler, os.Getenv("GOARCH"))}
	if conf.Sizes == nil {
		conf.Sizes = types.SizesFor("gc", "amd64")
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "urbvet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	lp := &analysis.LoadedPackage{Fset: fset, Files: files, Pkg: pkg, Info: info, Dir: cfg.Dir}
	diags, err := analysis.RunAll(lp, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
		return 1
	}
	return report(fset, cfg.ImportPath, diags, jsonOut)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runStandalone loads packages from source: each operand is a
// directory or dir/... pattern inside a module (default "./...").
func runStandalone(operands []string, jsonOut bool) int {
	if len(operands) == 0 {
		operands = []string{"./..."}
	}
	root, modPath, err := analysis.FindModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
		return 1
	}
	paths, err := expandOperands(root, modPath, operands)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
		return 1
	}
	loader := analysis.NewLoader(analysis.ModuleResolver(root, modPath))
	status := 0
	for _, p := range paths {
		lp, err := loader.Load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
			status = 1
			continue
		}
		diags, err := analysis.RunAll(lp, analysis.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbvet: %v\n", err)
			status = 1
			continue
		}
		if s := report(loader.Fset, p, diags, jsonOut); s > status {
			status = s
		}
	}
	return status
}

// expandOperands turns directory and dir/... operands into module
// import paths, deduplicated in first-seen order.
func expandOperands(root, modPath string, operands []string) ([]string, error) {
	seen := make(map[string]bool)
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, op := range operands {
		dir, recursive := op, false
		if rest, ok := strings.CutSuffix(op, "/..."); ok {
			dir, recursive = rest, true
			if dir == "" || dir == "." {
				dir = "."
			}
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", op, modPath)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if !recursive {
			add(importPath)
			continue
		}
		sub, err := analysis.ModulePackages(abs, importPath)
		if err != nil {
			return nil, err
		}
		for _, p := range sub {
			add(p)
		}
	}
	return paths, nil
}

// report prints diagnostics and returns the exit status they imply: 0
// when clean, 2 on findings (plain mode; JSON mode reports findings on
// stdout and succeeds, mirroring `go vet -json`).
func report(fset *token.FileSet, pkgPath string, diags []analysis.Diagnostic, jsonOut bool) int {
	if len(diags) == 0 {
		if jsonOut {
			fmt.Printf("%s\n", mustJSON(map[string]any{pkgPath: map[string]any{}}))
		}
		return 0
	}
	if jsonOut {
		byAnalyzer := make(map[string][]map[string]string)
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], map[string]string{
				"posn":    fset.Position(d.Pos).String(),
				"message": d.Message,
			})
		}
		fmt.Printf("%s\n", mustJSON(map[string]any{pkgPath: byAnalyzer}))
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return 2
}

func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		panic(err)
	}
	return data
}
