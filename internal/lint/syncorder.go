package lint

import (
	"go/ast"
	"strings"
)

// SyncOrder audits the module's concurrency discipline with one lexical
// rule (no go/types, no may-happen-in-parallel analysis — the lexical
// over-approximation is the contract): no channel send while a mutex is
// held. A send can block for arbitrarily long (an unbuffered channel is a
// rendezvous point); blocking inside a critical section turns a scheduling
// hiccup into a lock convoy, and pairing it with a receive under the same
// lock is a deadlock. Completion signalling under a lock should use close()
// (which never blocks) — the runner's singleflight entries are the house
// idiom. //bfetch:sync-ok <reason> suppresses a deliberate exception.
//
// Copying a sync type by value is left to go vet's copylocks check.
func SyncOrder(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBody(p, f, fd, &out)
		}
	}
	return out
}

// ----------------------------------------------------------- lock tracking --

// checkLockBody walks one function body in source order, tracking the
// lexically held lock set and flagging channel sends inside critical
// sections.
func checkLockBody(p *Package, f *ast.File, fd *ast.FuncDecl, out *[]Diagnostic) {
	recvName, recvType := "", ""
	if fd.Recv != nil {
		recvName, recvType = recvInfo(fd)
	}
	var held []string
	release := func(name string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == name {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at return, not here: the lock stays
			// lexically held for the rest of the body. Don't descend — the
			// deferred call must not be treated as an immediate release.
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				p.report(out, f, n.Pos(), "syncorder", "bfetch:sync-ok",
					"channel send while holding %s: a blocked receiver stalls the critical section (use close, or send after unlocking)",
					held[len(held)-1])
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := lockName(sel.X, recvName, recvType)
			if name == "" {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				held = append(held, name)
			case "Unlock", "RUnlock":
				release(name)
			}
		}
		return true
	})
}

// lockName renders the owner expression of a .Lock()/.Unlock() call as a
// stable name for findings: "Type.field..." for receiver-rooted selector
// chains, the variable name for package-level/local mutexes, "" when
// unresolvable.
func lockName(x ast.Expr, recvName, recvType string) string {
	var parts []string
	for {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			parts = append([]string{v.Sel.Name}, parts...)
			x = v.X
			continue
		case *ast.ParenExpr:
			x = v.X
			continue
		case *ast.Ident:
			root := v.Name
			if v.Name == recvName && recvType != "" {
				root = recvType
			}
			return strings.Join(append([]string{root}, parts...), ".")
		default:
			return ""
		}
	}
}
