// Package lint is the repository's custom static-analysis suite: a
// two-layer system enforcing the invariants the simulator's performance and
// reproducibility rest on, using only the standard library (the module
// stays dependency-free).
//
// Layer 2 — whole-program AST (fast, runs on every `make lint`):
//
//   - hotpath: functions annotated //bfetch:hotpath (the per-cycle
//     simulation kernel) must not contain allocating constructs.
//   - hotcall: the transitive closure of functions reachable from a
//     //bfetch:hotpath root must be annotated (and therefore checked) or
//     provably trivially alloc-free — no un-annotated helper slips through.
//   - syncorder: no channel send while a mutex is held, and lock
//     acquisition must respect the declared //bfetch:lockorder partial
//     order. (Copying sync types by value is go vet's copylocks check.)
//   - determinism: the simulation/experiment packages must not consult
//     global randomness or wall clocks, and must not publish results from a
//     map iteration without an explicit sort.
//   - statsreset: every struct with a Reset/ResetStats method must account
//     for all of its fields — each field is either assigned in the method or
//     explicitly annotated //bfetch:noreset.
//
// Layer 1 — compiler-witnessed (`make lint-full`, facts.go/escape.go):
//
//   - escape: runs the real compiler with -m=2 and the BCE debug stream and
//     fails when a //bfetch:hotpath function heap-escapes a value, calls a
//     non-inlined callee without a //bfetch:noinline-ok reason, or a
//     //bfetch:bce loop retains a bounds check. Go's build cache replays the
//     diagnostics of up-to-date packages, so repeat runs skip the compile.
//
// Escape hatches are deliberate and auditable: //bfetch:alloc-ok,
// //bfetch:wallclock, //bfetch:orderok and //bfetch:sync-ok suppress a
// single finding on the same or the following line; //bfetch:noinline-ok
// and //bfetch:coldcall require a reason string; //bfetch:noreset marks a
// struct field as learned/configuration state that a stats reset must
// preserve. DESIGN.md §6b–6c document the contract and annotation grammar.
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
// first five are the AST layer (Run); "escape" is the compiler-witnessed
// layer (Escape, fed by CollectFacts).
var AnalyzerNames = []string{"hotpath", "hotcall", "syncorder", "determinism", "statsreset", "escape"}

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
// Hotpath and statsreset always run module-wide (they trigger only on
// annotations/method names).
var determinismPkgs = map[string]bool{
	"internal/sim": true, "internal/harness": true, "internal/runner": true,
	"internal/workload": true, "internal/obs": true, "internal/store": true,
}

// Run applies the AST-layer analyzers (hotpath, hotcall, syncorder,
// determinism, statsreset) to the packages and returns the surviving
// (unsuppressed) diagnostics sorted by position. The compiler-witnessed
// escape analyzer is separate (CollectFacts + Escape) because it shells out
// to the toolchain.
func Run(pkgs []*Package) []Diagnostic {
	idx := buildModuleIndex(pkgs)
	fidx := buildFuncIndex(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		out = append(out, Hotpath(p, idx)...)
		out = append(out, StatsReset(p)...)
		out = append(out, SyncOrder(p)...)
		if determinismPkgs[p.Rel] {
			out = append(out, Determinism(p, idx)...)
		}
	}
	out = append(out, Hotcall(pkgs, fidx)...)
	sortDiags(out)
	return out
}

// RunResult is the outcome of the full two-layer gate.
type RunResult struct {
	Diags []Diagnostic
	Ran   []string // analyzers that actually executed, in gate order
	// Warnings carries non-fatal degradations — most importantly the
	// escape analyzer skipping itself because the toolchain's diagnostic
	// format was not recognized. A warning is not a pass: CI surfaces it.
	Warnings []string
	Packages int
}

// RunAll loads the module at root and applies the AST layer and, when
// compiler is true, the compiler-witnessed escape layer. An unrecognizable
// toolchain diagnostic format degrades escape to a skip-with-warning rather
// than an error (or a false pass).
func RunAll(root string, compiler bool) (RunResult, error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Packages: len(pkgs)}
	res.Diags = Run(pkgs)
	res.Ran = []string{"hotpath", "hotcall", "syncorder", "determinism", "statsreset"}
	if compiler {
		facts, ferr := CollectFacts(root, pkgs)
		switch {
		case errors.Is(ferr, ErrNoFacts):
			res.Warnings = append(res.Warnings, ferr.Error())
		case ferr != nil:
			return res, ferr
		default:
			fidx := buildFuncIndex(pkgs)
			diags := Escape(pkgs, fidx, facts)
			res.Diags = append(res.Diags, diags...)
			res.Ran = append(res.Ran, "escape")
			sortDiags(res.Diags)
		}
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
// (e.g. the reason string of //bfetch:noinline-ok or //bfetch:coldcall).
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

// moduleIndex carries the cross-package facts analyzers need without
// go/types: which functions return maps (so callers' map-typed variables can
// be tracked), which take variadic any parameters (argument boxing), and
// which named types are declared as slices or maps.
type moduleIndex struct {
	// mapResults maps "pkgbase.FuncName" and "rel|FuncName" to the indices
	// of map-typed results in that function's result list.
	mapResults map[string][]int
	// variadicAny marks functions declared with a ...any / ...interface{}
	// parameter, keyed like mapResults.
	variadicAny map[string]bool
	// sliceMapTypes marks named types declared as slice or map types, keyed
	// "pkgbase.TypeName" and "rel|TypeName".
	sliceMapTypes map[string]bool
}

func buildModuleIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{
		mapResults:    make(map[string][]int),
		variadicAny:   make(map[string]bool),
		sliceMapTypes: make(map[string]bool),
	}
	for _, p := range pkgs {
		base := pkgBase(p.Rel)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						continue
					}
					if hasVariadicAny(d.Type) {
						idx.variadicAny[base+"."+d.Name.Name] = true
						idx.variadicAny[p.Rel+"|"+d.Name.Name] = true
					}
					if d.Type.Results == nil {
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
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						switch t := ts.Type.(type) {
						case *ast.MapType:
							idx.sliceMapTypes[base+"."+ts.Name.Name] = true
							idx.sliceMapTypes[p.Rel+"|"+ts.Name.Name] = true
						case *ast.ArrayType:
							if t.Len == nil {
								idx.sliceMapTypes[base+"."+ts.Name.Name] = true
								idx.sliceMapTypes[p.Rel+"|"+ts.Name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return idx
}

// hasVariadicAny reports whether the signature ends in ...any or
// ...interface{}.
func hasVariadicAny(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	last := ft.Params.List[len(ft.Params.List)-1]
	el, ok := last.Type.(*ast.Ellipsis)
	if !ok {
		return false
	}
	switch t := el.Elt.(type) {
	case *ast.Ident:
		return t.Name == "any"
	case *ast.InterfaceType:
		return t.Methods == nil || len(t.Methods.List) == 0
	}
	return false
}

func pkgBase(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[i+1:]
	}
	return rel
}
