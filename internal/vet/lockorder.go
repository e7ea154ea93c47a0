package vet

import (
	"go/ast"
	"sort"
	"strings"
)

// LockOrder flags user-callback invocations made while a mutex is held.
// FREERIDE's contract is that strategy locks (robj's per-group/per-cell
// locks, the engine's bookkeeping mutexes) guard only the engine's own
// state: user callbacks (Combine, Reduction, Finalize, the
// kernels) run lock-free, so a callback can take arbitrarily long — or call
// back into the engine — without deadlocking the worker pool or serializing
// other workers behind it.
//
// The analyzer tracks Lock/RLock...Unlock/RUnlock windows per function
// (including TryLock guards in if conditions) and reports any call to a
// known callback name inside a window. defer'd Unlocks keep the window open
// to the end of the function, matching runtime behavior.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutexes must not be held across user-callback invocations",
	Run:  runLockOrder,
}

// callbackNames are the spec/class callback selectors whose invocation under
// a lock is a contract violation.
var callbackNames = map[string]bool{
	"Combine":        true,
	"Reduction":      true,
	"BlockReduction": true,
	"Finalize":       true,
	"Kernel":         true,
	"BlockKernel":    true,
}

// copyHeld clones a held-lock set for a nested control-flow branch.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func runLockOrder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBlock(pass, fd.Body.List, map[string]bool{})
		}
	}
}

// checkLockBlock scans a statement list with the set of currently-held lock
// chains, recursing into nested control flow with a copy (a lock released
// on one branch is conservatively still considered released only within
// that branch).
func checkLockBlock(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch v := stmt.(type) {
		case *ast.BlockStmt:
			checkLockBlock(pass, v.List, copyHeld(held))
		case *ast.IfStmt:
			if v.Init != nil {
				scanLockStmt(pass, v.Init, held)
			}
			scanLockExpr(pass, v.Cond, held)
			bodyHeld := copyHeld(held)
			if chain := tryLockChain(v.Cond); chain != "" {
				bodyHeld[chain] = true
			}
			checkLockBlock(pass, v.Body.List, bodyHeld)
			if v.Else != nil {
				checkLockBlock(pass, []ast.Stmt{v.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if v.Init != nil {
				scanLockStmt(pass, v.Init, held)
			}
			scanLockExpr(pass, v.Cond, held)
			checkLockBlock(pass, v.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanLockExpr(pass, v.X, held)
			checkLockBlock(pass, v.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkLockBlock(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkLockBlock(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkLockBlock(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.DeferStmt:
			// defer x.Unlock() does not release the lock at this point; the
			// window stays open to function end. Nothing to update.
		default:
			scanLockStmt(pass, stmt, held)
		}
	}
}

// scanLockStmt processes a straight-line statement: updates the held set for
// Lock/Unlock calls and reports callback calls made while any lock is held.
func scanLockStmt(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // not invoked here
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if chain := exprChain(sel.X); chain != "" {
				held[chain] = true
			}
		case "Unlock", "RUnlock":
			if chain := exprChain(sel.X); chain != "" {
				delete(held, chain)
			}
		default:
			if callbackNames[sel.Sel.Name] && len(held) > 0 {
				pass.Report(call, "user callback %s invoked while %s held; release strategy locks before calling into user code",
					sel.Sel.Name, heldNames(held))
			}
		}
		return true
	})
}

// scanLockExpr is scanLockStmt for a bare expression (conditions, range
// operands).
func scanLockExpr(pass *Pass, e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	scanLockStmt(pass, &ast.ExprStmt{X: e}, held)
}

// tryLockChain returns the lock chain when cond is (or contains at top
// level) x.TryLock() / x.TryRLock().
func tryLockChain(cond ast.Expr) string {
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "TryLock" && sel.Sel.Name != "TryRLock") {
		return ""
	}
	return exprChain(sel.X)
}

// exprChain renders a selector chain of plain identifiers ("o.mu",
// "s.locks[g]" → "s.locks"); "" when the base is not an identifier.
func exprChain(e ast.Expr) string {
	var parts []string
	for {
		switch v := e.(type) {
		case *ast.Ident:
			parts = append(parts, v.Name)
			// reverse
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, ".")
		case *ast.SelectorExpr:
			parts = append(parts, v.Sel.Name)
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return ""
		}
	}
}

// heldNames renders the held set for a report message.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 1 {
		return names[0] + " is"
	}
	return strings.Join(names, ", ") + " are"
}
