package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// Escape is the compiler-witnessed gate: instead of guessing from the AST
// what might allocate, it checks what the compiler actually decided
// (facts from CollectFacts or ParseFacts):
//
//	(a) a //bfetch:hotpath function with a value the compiler moved or
//	    escaped to the heap fails — //bfetch:alloc-ok on the line is the
//	    cold-path hatch;
//	(b) a call inside a hotpath function whose callee the compiler refused
//	    to inline fails, unless the callee is itself //bfetch:hotpath
//	    (checked on its own terms; the big pipeline stages are deliberate
//	    non-inline boundaries) or the call carries //bfetch:noinline-ok
//	    with a reason string;
//	(c) a loop annotated //bfetch:bce that retains a bounds check fails —
//	    there is no hatch; fix the loop or drop the annotation.
//
// Calls the compiler witnessed as inlined ("inlining call to" at the call
// line) pass (b) outright; calls that resolve to nothing in-module
// (interface dispatch, func values) are outside this check — their
// implementations are hotpath roots themselves, and the malloc witnesses
// execute them.
func Escape(pkgs []*Package, fidx *funcIndex, facts *FactTable) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			relFile := moduleRelFile(facts.Root, p, f)
			if relFile == "" {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if hasDirective(fd.Doc, "bfetch:hotpath") {
					checkHotEscapes(p, f, fd, relFile, facts, &out)
					checkHotInlining(p, f, fd, relFile, fidx, facts, &out)
				}
			}
			checkBCELoops(p, f, relFile, facts, &out)
			// A noinline-ok hatch must carry a reason; a bare marker is
			// unauditable.
			for line, text := range p.markerArgs(f, "bfetch:noinline-ok") {
				if strings.TrimSpace(text) == "" {
					p.report(&out, f, f.Pos(), "escape", "",
						"line %d: //bfetch:noinline-ok requires a reason string", line)
				}
			}
		}
	}
	return out
}

// moduleRelFile returns the module-root-relative slash path of f, or "" if
// it lies outside root.
func moduleRelFile(root string, p *Package, f *ast.File) string {
	abs := p.Fset.Position(f.Package).Filename
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	return filepath.ToSlash(rel)
}

// checkHotEscapes reports every compiler-witnessed heap escape inside the
// hotpath function's body range.
func checkHotEscapes(p *Package, f *ast.File, fd *ast.FuncDecl, relFile string, facts *FactTable, out *[]Diagnostic) {
	start := p.Fset.Position(fd.Body.Pos()).Line
	end := p.Fset.Position(fd.Body.End()).Line
	for line := start; line <= end; line++ {
		for _, fact := range facts.FactsAt(relFile, line) {
			if fact.Kind != FactEscape {
				continue
			}
			// Position the diagnostic at the fact's own line so an
			// alloc-ok hatch on that line covers it.
			pos := posOnLine(p, f, fd, fact.Line)
			p.report(out, f, pos, "escape", "bfetch:alloc-ok",
				"compiler: %s escapes to heap inside //bfetch:hotpath %s", fact.Name, fd.Name.Name)
		}
	}
}

// checkHotInlining walks the call sites of a hotpath function and requires
// each module-resolved callee to be inlined, hotpath-annotated, or hatched.
func checkHotInlining(p *Package, f *ast.File, fd *ast.FuncDecl, relFile string, fidx *funcIndex, facts *FactTable, out *[]Diagnostic) {
	var node *funcNode
	for _, n := range fidx.nodes {
		if n.decl == fd {
			node = n
			break
		}
	}
	if node == nil {
		return
	}
	for _, e := range fidx.edges(node) {
		if len(e.targets) == 0 {
			continue
		}
		line := p.Fset.Position(e.pos).Line
		inlined := false
		for _, fact := range facts.FactsAt(relFile, line) {
			if fact.Kind == FactInlineCall && factBaseName(fact.Name) == e.callee {
				inlined = true
				break
			}
		}
		if inlined {
			continue
		}
		// Not witnessed as inlined here. Acceptable when every candidate
		// target is under the hotpath contract itself.
		allHot := true
		for _, t := range e.targets {
			if !t.hotpath {
				allHot = false
				break
			}
		}
		if allHot {
			continue
		}
		// Find the compiler's verdict on the callee, preferring facts
		// positioned in the target's own file.
		reason := ""
		for _, fact := range facts.CannotInline(e.callee) {
			reason = fact.Detail
			if factInTargets(fact, e.targets, facts.Root) {
				break
			}
		}
		if reason == "" {
			// Callee is inlinable in general but was not inlined at this
			// site (indirect use, budget interaction). Only report when the
			// compiler knows the function at all — otherwise stay silent
			// rather than guess.
			if len(facts.CanInline(e.callee)) == 0 {
				continue
			}
			reason = "inlinable, but not inlined at this call site"
		}
		p.report(out, f, e.pos, "escape", "bfetch:noinline-ok",
			"call to %s in //bfetch:hotpath %s is not inlined (%s); annotate the callee //bfetch:hotpath or hatch with //bfetch:noinline-ok <reason>",
			e.callee, fd.Name.Name, reason)
	}
}

// factInTargets reports whether the fact is positioned in the file of one of
// the candidate target declarations.
func factInTargets(fact Fact, targets []*funcNode, root string) bool {
	for _, t := range targets {
		if moduleRelFile(root, t.p, t.f) == fact.File {
			return true
		}
	}
	return false
}

// checkBCELoops enforces //bfetch:bce: the for/range statement on the line
// after the marker must have no surviving bounds check anywhere in its
// source range.
func checkBCELoops(p *Package, f *ast.File, relFile string, facts *FactTable, out *[]Diagnostic) {
	marks := p.markerLines(f, "bfetch:bce")
	if len(marks) == 0 {
		return
	}
	claimed := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch v := n.(type) {
		case *ast.ForStmt:
			body = v.Body
		case *ast.RangeStmt:
			body = v.Body
		default:
			return true
		}
		line := p.Fset.Position(n.Pos()).Line
		if !marks[line] && !marks[line-1] {
			return true
		}
		claimed[line] = true
		claimed[line-1] = true
		start := p.Fset.Position(n.Pos()).Line
		end := p.Fset.Position(body.End()).Line
		for l := start; l <= end; l++ {
			for _, fact := range facts.FactsAt(relFile, l) {
				if fact.Kind == FactBoundsCheck {
					pos := posOnLine(p, f, nil, fact.Line)
					p.report(out, f, pos, "escape", "",
						"//bfetch:bce loop retains a bounds check (%s at line %d); restructure the indexing or drop the annotation",
						fact.Name, fact.Line)
				}
			}
		}
		return true
	})
	for line := range marks {
		if !claimed[line] && !claimed[line+1] {
			p.report(out, f, f.Pos(), "escape", "",
				"line %d: //bfetch:bce is not attached to a for/range statement", line)
		}
	}
}

// posOnLine returns a token.Pos on the given line of f — the first AST node
// starting there (searching inside fd's body when provided, the whole file
// otherwise) — so suppression markers on that line match. Falls back to the
// scope's own position so diagnostics always carry one.
func posOnLine(p *Package, f *ast.File, fd *ast.FuncDecl, line int) token.Pos {
	var scope ast.Node = f
	if fd != nil {
		scope = fd.Body
	}
	best := token.NoPos
	ast.Inspect(scope, func(n ast.Node) bool {
		if n == nil || best.IsValid() {
			return false
		}
		if p.Fset.Position(n.Pos()).Line == line {
			best = n.Pos()
			return false
		}
		return true
	})
	if best.IsValid() {
		return best
	}
	return scope.Pos()
}
