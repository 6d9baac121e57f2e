package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the intra-module call graph the escape analyzer's inlining
// check reads: for each call site in a //bfetch:hotpath body it names the
// module functions the call may reach, so the compiler's inlining verdict
// can be looked up for that callee.
//
// Call edges are resolved without go/types, best-effort: same-package
// functions by name, pkg.F through the file's module-internal imports, and
// methods first by receiver-type inference (receiver/parameter declarations
// and struct field types, followed through selector chains) then by name
// across the calling file's package and module-internal imports. Calls that
// name no module function — builtins, conversions, stdlib, interface
// dispatch on unknown types, function values — get no targets.

// ----------------------------------------------------------- function index --

// funcNode is one function or method declaration in the module.
type funcNode struct {
	p        *Package
	f        *ast.File
	decl     *ast.FuncDecl
	name     string // declared name
	recvType string // receiver type name, "" for plain functions
	hotpath  bool
}

// callEdge is one call site with its resolved candidate targets (none when
// the call names no module function).
type callEdge struct {
	pos     token.Pos
	callee  string // base name as written at the call site
	targets []*funcNode
}

// funcIndex carries every function declaration in the module plus the type
// hints needed to resolve method calls.
type funcIndex struct {
	pkgs  []*Package
	nodes []*funcNode

	byPkgFunc   map[string]*funcNode   // "rel|name" → plain function
	byPkgMethod map[string][]*funcNode // "rel|name" → methods with that name

	// fieldType maps "rel|Type|field" to the named type of a struct field:
	// "rel2|Type2" (module-internal packages only).
	fieldType map[string]string
	// imports maps file → local import name → module-relative package dir.
	imports map[*ast.File]map[string]string
	// external maps file → local names of imports outside the module.
	external map[*ast.File]map[string]bool
	// modPath is the module path from go.mod ("repro"), used to recognize
	// module-internal imports.
	modPath string
}

func buildFuncIndex(pkgs []*Package) *funcIndex {
	fi := &funcIndex{
		pkgs:        pkgs,
		byPkgFunc:   make(map[string]*funcNode),
		byPkgMethod: make(map[string][]*funcNode),
		fieldType:   make(map[string]string),
		imports:     make(map[*ast.File]map[string]string),
		external:    make(map[*ast.File]map[string]bool),
		modPath:     moduleImportPath(pkgs),
	}
	byBaseName := make(map[string]string) // package base name → rel (for import resolution)
	for _, p := range pkgs {
		byBaseName[pkgBase(p.Rel)] = p.Rel
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			imp := make(map[string]string)
			ext := make(map[string]bool)
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				rel, ok := fi.moduleRelImport(path)
				name := pkgBase(path)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				if ok {
					imp[name] = rel
				} else {
					ext[name] = true
				}
			}
			fi.imports[f] = imp
			fi.external[f] = ext

			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					n := &funcNode{p: p, f: f, decl: d, name: d.Name.Name,
						hotpath: hasDirective(d.Doc, "bfetch:hotpath")}
					if d.Recv != nil {
						_, n.recvType = recvInfo(d)
					}
					fi.nodes = append(fi.nodes, n)
					if n.recvType == "" {
						fi.byPkgFunc[p.Rel+"|"+n.name] = n
					} else {
						fi.byPkgMethod[p.Rel+"|"+n.name] = append(fi.byPkgMethod[p.Rel+"|"+n.name], n)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok || st.Fields == nil {
							continue
						}
						for _, field := range st.Fields.List {
							ftype := namedTypeOf(field.Type, f, fi, byBaseName, p.Rel)
							if ftype == "" {
								continue
							}
							for _, name := range field.Names {
								fi.fieldType[p.Rel+"|"+ts.Name.Name+"|"+name.Name] = ftype
							}
						}
					}
				}
			}
		}
	}
	return fi
}

// moduleRelImport maps an import path to a module-relative dir, if the path
// is inside this module.
func (fi *funcIndex) moduleRelImport(path string) (string, bool) {
	if fi.modPath == "" {
		return "", false
	}
	if path == fi.modPath {
		return "", true
	}
	if strings.HasPrefix(path, fi.modPath+"/") {
		return path[len(fi.modPath)+1:], true
	}
	return "", false
}

// moduleImportPath infers the module path from any file's module-internal
// imports; falls back to scanning go.mod next to the root package.
func moduleImportPath(pkgs []*Package) string {
	for _, p := range pkgs {
		if p.Rel == "" {
			data, err := readGoModModule(p.Dir)
			if err == nil {
				return data
			}
		}
	}
	// No root package parsed: walk up from the first package dir.
	if len(pkgs) > 0 {
		dir := pkgs[0].Dir
		for i := 0; i < 10; i++ {
			if m, err := readGoModModule(dir); err == nil {
				return m
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return ""
}

// namedTypeOf resolves a field type expression to "rel|TypeName" when it
// names a struct type in this module ("" otherwise). Pointers are followed;
// slices/maps/funcs/interfaces are not.
func namedTypeOf(t ast.Expr, f *ast.File, fi *funcIndex, byBaseName map[string]string, selfRel string) string {
	for {
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
			continue
		}
		break
	}
	switch v := t.(type) {
	case *ast.Ident:
		return selfRel + "|" + v.Name
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok {
			if rel, ok := fi.imports[f][x.Name]; ok {
				return rel + "|" + v.Sel.Name
			}
			if rel, ok := byBaseName[x.Name]; ok {
				return rel + "|" + v.Sel.Name
			}
		}
	}
	return ""
}

// ------------------------------------------------------------- call edges --

// edges resolves the outgoing call edges of a node.
func (fi *funcIndex) edges(n *funcNode) []callEdge {
	recvName := ""
	if n.decl.Recv != nil {
		recvName, _ = recvInfo(n.decl)
	}
	types := fi.localTypes(n, recvName)
	var out []callEdge
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			out = append(out, fi.resolveCall(n, call, types))
		}
		return true
	})
	return out
}

// localTypes maps the function's receiver and parameters to "rel|Type" for
// module-internal named types.
func (fi *funcIndex) localTypes(n *funcNode, recvName string) map[string]string {
	byBaseName := make(map[string]string)
	for _, p := range fi.pkgs {
		byBaseName[pkgBase(p.Rel)] = p.Rel
	}
	types := make(map[string]string)
	if recvName != "" && n.recvType != "" {
		types[recvName] = n.p.Rel + "|" + n.recvType
	}
	if n.decl.Type.Params != nil {
		for _, field := range n.decl.Type.Params.List {
			t := namedTypeOf(field.Type, n.f, fi, byBaseName, n.p.Rel)
			if t == "" {
				continue
			}
			for _, name := range field.Names {
				types[name.Name] = t
			}
		}
	}
	return types
}

// resolveCall resolves the module-internal targets of one call expression.
func (fi *funcIndex) resolveCall(n *funcNode, call *ast.CallExpr, types map[string]string) callEdge {
	e := callEdge{pos: call.Pos()}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		e.callee = fun.Name
		if t := fi.byPkgFunc[n.p.Rel+"|"+fun.Name]; t != nil {
			e.targets = []*funcNode{t}
		}
	case *ast.SelectorExpr:
		e.callee = fun.Sel.Name
		if x, ok := fun.X.(*ast.Ident); ok {
			// pkg.F through a module-internal import.
			if rel, ok := fi.imports[n.f][x.Name]; ok {
				if t := fi.byPkgFunc[rel+"|"+fun.Sel.Name]; t != nil {
					e.targets = []*funcNode{t}
				}
				return e
			}
			if fi.external[n.f][x.Name] {
				return e // pkg.F outside the module
			}
		}
		// Method call: typed resolution first, name fallback second.
		if t := fi.typedReceiver(fun.X, n, types); t != "" {
			rel, typ, _ := strings.Cut(t, "|")
			for _, m := range fi.byPkgMethod[rel+"|"+fun.Sel.Name] {
				if m.recvType == typ {
					e.targets = []*funcNode{m}
					return e
				}
			}
			// Known type, no such method in-module (embedded/interface):
			// fall through to the name fallback.
		}
		e.targets = append(e.targets, fi.byPkgMethod[n.p.Rel+"|"+fun.Sel.Name]...)
		for _, rel := range fi.imports[n.f] {
			e.targets = append(e.targets, fi.byPkgMethod[rel+"|"+fun.Sel.Name]...)
		}
	}
	return e
}

// typedReceiver resolves the receiver expression of a method call to
// "rel|Type" by following identifier → selector chains through declared
// receiver/parameter types and struct field types.
func (fi *funcIndex) typedReceiver(x ast.Expr, n *funcNode, types map[string]string) string {
	switch v := x.(type) {
	case *ast.Ident:
		return types[v.Name]
	case *ast.ParenExpr:
		return fi.typedReceiver(v.X, n, types)
	case *ast.StarExpr:
		return fi.typedReceiver(v.X, n, types)
	case *ast.UnaryExpr:
		return fi.typedReceiver(v.X, n, types)
	case *ast.IndexExpr:
		return "" // element types not tracked
	case *ast.SelectorExpr:
		base := fi.typedReceiver(v.X, n, types)
		if base == "" {
			return ""
		}
		return fi.fieldType[base+"|"+v.Sel.Name]
	}
	return ""
}

func readGoModModule(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
}
