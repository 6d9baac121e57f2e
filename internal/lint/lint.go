// Package lint is the repository's custom static-analysis suite: it
// enforces the invariants the simulator's performance and reproducibility
// rest on, using only the standard library (the module stays
// dependency-free). Four analyzers run in one gate:
//
//   - syncorder: no channel send while a mutex is held. (Copying sync
//     types by value is go vet's copylocks check.)
//   - determinism: the simulation/experiment packages must not consult
//     global randomness or wall clocks, and must not publish results from a
//     map iteration without an explicit sort.
//   - statsreset: every struct with a Reset/ResetStats method must account
//     for all of its fields — each field is either assigned in the method or
//     explicitly annotated //bfetch:noreset.
//   - escape (facts.go/escape.go): runs the real compiler with -m=2 and the
//     BCE debug stream and fails when a //bfetch:hotpath function
//     heap-escapes a value, calls a non-inlined callee without a
//     //bfetch:noinline-ok reason, or a //bfetch:bce loop retains a bounds
//     check. Go's build cache replays the diagnostics of up-to-date
//     packages, so repeat runs skip the compile.
//
// The first three read the AST alone; escape reads what the compiler
// decided. What no static check sees — an append that grows, a goroutine, a
// conversion the compiler keeps on the stack until it does not — is left to
// the exact malloc witnesses that execute every //bfetch:hotpath function
// (internal/cpu, internal/sim and internal/emu alloc tests).
//
// Escape hatches are deliberate and auditable: //bfetch:alloc-ok,
// //bfetch:wallclock, //bfetch:orderok and //bfetch:sync-ok suppress a
// single finding on the same or the following line; //bfetch:noinline-ok
// requires a reason string; //bfetch:noreset marks a struct field as
// learned/configuration state that a stats reset must preserve. DESIGN.md
// §6b–6c document the contract and annotation grammar.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AnalyzerNames lists every analyzer the suite runs, in gate order. The
// first three read the AST (Run); "escape" reads the compiler's verdicts
// (Escape, fed by CollectFacts).
var AnalyzerNames = []string{"syncorder", "determinism", "statsreset", "escape"}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // one of AnalyzerNames
	Message  string
}

// String formats the finding the way compilers do: file:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed directory of non-test Go files.
type Package struct {
	Rel   string // module-relative directory, "" for the root
	Dir   string // absolute or cleaned directory path
	Fset  *token.FileSet
	Files []*ast.File

	// markers caches, per file, the line numbers carrying each //bfetch:
	// suppression marker.
	markers map[*ast.File]map[string]map[int]bool

	// mapFieldCache memoizes the package's map-typed struct field names for
	// the determinism analyzer.
	mapFieldCache map[string]bool
}

// determinismPkgs scopes the determinism analyzer to the module-relative
// package directories whose output feeds recorded experiment results.
// The other analyzers run module-wide (they trigger only on annotations,
// reset methods and lock calls).
var determinismPkgs = map[string]bool{
	"internal/sim": true, "internal/harness": true, "internal/runner": true,
	"internal/workload": true, "internal/obs": true, "internal/store": true,
}

// Run applies the AST analyzers (syncorder, determinism, statsreset) to the
// packages and returns the surviving (unsuppressed) diagnostics sorted by
// position. The compiler-witnessed escape analyzer is separate
// (CollectFacts + Escape) because it shells out to the toolchain.
func Run(pkgs []*Package) []Diagnostic {
	idx := buildModuleIndex(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		out = append(out, StatsReset(p)...)
		out = append(out, SyncOrder(p)...)
		if determinismPkgs[p.Rel] {
			out = append(out, Determinism(p, idx)...)
		}
	}
	sortDiags(out)
	return out
}

// RunResult is the outcome of the gate.
type RunResult struct {
	Diags []Diagnostic
	Ran   []string // analyzers that actually executed, in gate order
	// Warnings carries non-fatal degradations — most importantly the
	// escape analyzer skipping itself because the toolchain's diagnostic
	// format was not recognized. A warning is not a pass: CI surfaces it.
	Warnings []string
	Packages int
}

// RunAll loads the module at root and applies every analyzer. An
// unrecognizable toolchain diagnostic format degrades escape to a
// skip-with-warning rather than an error (or a false pass).
func RunAll(root string) (RunResult, error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Packages: len(pkgs)}
	res.Diags = Run(pkgs)
	res.Ran = []string{"syncorder", "determinism", "statsreset"}
	facts, ferr := CollectFacts(root, pkgs)
	switch {
	case errors.Is(ferr, ErrNoFacts):
		res.Warnings = append(res.Warnings, ferr.Error())
	case ferr != nil:
		return res, ferr
	default:
		res.Diags = append(res.Diags, Escape(pkgs, buildFuncIndex(pkgs), facts)...)
		res.Ran = append(res.Ran, "escape")
		sortDiags(res.Diags)
	}
	return res, nil
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
}

// ---------------------------------------------------------------- markers --

// markerLines returns the set of lines in f whose comments carry marker
// (e.g. "bfetch:alloc-ok"), computing the file's marker table on first use.
func (p *Package) markerLines(f *ast.File, marker string) map[int]bool {
	if p.markers == nil {
		p.markers = make(map[*ast.File]map[string]map[int]bool)
	}
	byMarker, ok := p.markers[f]
	if !ok {
		byMarker = make(map[string]map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "bfetch:") {
					continue
				}
				name := text
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					name = text[:i]
				}
				line := p.Fset.Position(c.Pos()).Line
				if byMarker[name] == nil {
					byMarker[name] = make(map[int]bool)
				}
				byMarker[name][line] = true
			}
		}
		p.markers[f] = byMarker
	}
	return byMarker[marker]
}

// markerArgs returns, per line, the text following marker in f's comments
// (e.g. the reason string of //bfetch:noinline-ok).
// Lines carrying the marker with no argument map to "".
func (p *Package) markerArgs(f *ast.File, marker string) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, marker) {
				continue
			}
			rest := text[len(marker):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // a different, longer marker name
			}
			out[p.Fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
		}
	}
	return out
}

// suppressed reports whether pos is covered by marker: the marker comment
// sits on the same line or on the line immediately above.
func (p *Package) suppressed(f *ast.File, pos token.Pos, marker string) bool {
	lines := p.markerLines(f, marker)
	if lines == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// report appends a diagnostic unless a suppression marker covers it.
func (p *Package) report(out *[]Diagnostic, f *ast.File, pos token.Pos,
	analyzer, marker, format string, args ...any) {
	if marker != "" && p.suppressed(f, pos, marker) {
		return
	}
	*out = append(*out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// hasDirective reports whether the comment group contains the given
// //bfetch: directive. Directive-style comments (no space after //) are
// excluded from CommentGroup.Text, so the raw list is scanned.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// -------------------------------------------------------- module-wide index --

// moduleIndex carries the cross-package facts the determinism analyzer
// needs without go/types: which functions return maps, so callers'
// map-typed variables can be tracked.
type moduleIndex struct {
	// mapResults maps "pkgbase.FuncName" and "rel|FuncName" to the indices
	// of map-typed results in that function's result list.
	mapResults map[string][]int
}

func buildModuleIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{mapResults: make(map[string][]int)}
	for _, p := range pkgs {
		base := pkgBase(p.Rel)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv != nil || d.Type.Results == nil {
					continue
				}
				var mapIdx []int
				i := 0
				for _, field := range d.Type.Results.List {
					n := len(field.Names)
					if n == 0 {
						n = 1
					}
					for k := 0; k < n; k++ {
						if _, isMap := field.Type.(*ast.MapType); isMap {
							mapIdx = append(mapIdx, i)
						}
						i++
					}
				}
				if len(mapIdx) > 0 {
					idx.mapResults[base+"."+d.Name.Name] = mapIdx
					idx.mapResults[p.Rel+"|"+d.Name.Name] = mapIdx
				}
			}
		}
	}
	return idx
}

func pkgBase(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[i+1:]
	}
	return rel
}
