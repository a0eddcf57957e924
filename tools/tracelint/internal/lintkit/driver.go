package lintkit

// The two drivers that feed packages to the analyzers:
//
//   - RunVetConfig implements the `go vet -vettool` unit-checking
//     protocol: the go command type-checks nothing itself — it hands
//     the tool a JSON config naming the package's files and the
//     export-data file of every import, and the tool parses,
//     type-checks (via the stdlib gc importer reading that export
//     data) and reports. This is the same contract
//     golang.org/x/tools/go/analysis/unitchecker implements; rebuilt
//     here on the standard library only.
//
//   - LoadPackages drives `go list -export -deps -json` directly so
//     `tracelint ./...` works standalone, resolving import export
//     data from the build cache the same way.

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
	"strings"
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
// resolving its imports through imp. Both drivers and the fixture
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

// listPackage is the subset of `go list -json` output the standalone
// driver consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct {
		Path      string
		GoVersion string
		Dir       string
	}
	DepOnly bool
	Error   *struct{ Err string }
}

// LoadedPackage is one module package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Pass       *Pass
}

// LoadPackages resolves patterns with the go tool (from dir, typically
// a module root), type-checks every non-dependency package from
// source, and returns passes ready for Run. Packages outside the main
// module (and their export data) participate only as imports.
func LoadPackages(dir string, patterns []string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=Dir,ImportPath,Standard,Export,GoFiles,Module,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if len(p.GoFiles) == 0 {
			continue // e.g. a file-less module root matched by ./...
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pp := p
			targets = append(targets, &pp)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var loaded []*LoadedPackage
	for _, p := range targets {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, p.Dir+string(os.PathSeparator)+f)
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		pass, err := Typecheck(p.ImportPath, files, goVersion, imp)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, &LoadedPackage{ImportPath: p.ImportPath, Pass: pass})
	}
	return loaded, nil
}

// TrimPos shortens file paths in diagnostics to be relative to dir
// for readable output.
func TrimPos(d Diagnostic, dir string) Diagnostic {
	if dir != "" && strings.HasPrefix(d.Pos.Filename, dir+string(os.PathSeparator)) {
		d.Pos.Filename = d.Pos.Filename[len(dir)+1:]
	}
	return d
}
