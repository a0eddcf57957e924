package lintkit

// The driver that feeds packages to the analyzers: RunVetConfig
// implements the `go vet -vettool` unit-checking protocol. The go
// command type-checks nothing itself — it hands the tool a JSON config
// naming the package's files and the export-data file of every import,
// and the tool parses, type-checks (via the stdlib gc importer reading
// that export data) and reports. This is the same contract
// golang.org/x/tools/go/analysis/unitchecker implements; rebuilt here
// on the standard library only.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// VetConfig is the JSON configuration the go command writes for each
// package when invoking a -vettool. Field names and semantics follow
// cmd/go's vet action; unused fields are accepted and ignored.
type VetConfig struct {
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

// RunVetConfig executes analyzers over the package described by the
// config file at cfgPath, returning its diagnostics. It always writes
// the (empty — tracelint uses no cross-package facts) vetx output the
// go command expects, including in VetxOnly mode, where analysis is
// skipped entirely.
func RunVetConfig(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: parsing vet config: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	pass, err := Typecheck(cfg.ImportPath, cfg.GoFiles, cfg.GoVersion, newVetImporter(&cfg))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return Run(pass, analyzers)
}

// Typecheck parses and type-checks one package from source files,
// resolving its imports through imp. The vet driver and the fixture
// runner (lintest) build their passes with it.
func Typecheck(importPath string, goFiles []string, goVersion string, imp types.Importer) (*Pass, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", importPath)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tcfg := &types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(error) {}, // keep going; first error is returned below
	}
	if _, err := tcfg.Check(importPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("%s: typecheck: %v", importPath, err)
	}
	return &Pass{Fset: fset, Files: files, TypesInfo: info}, nil
}

// newVetImporter builds a gc-export-data importer over the config's
// import-path -> export-file map, with the vendor/ImportMap indirection
// the go command encodes.
func newVetImporter(cfg *VetConfig) types.Importer {
	fset := token.NewFileSet()
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
}
