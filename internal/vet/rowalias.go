package vet

import (
	"go/ast"
	"go/token"
)

// RowAlias flags kernels that retain or mutate a borrowed row view. With
// zero-copy sources (memory matrices, mmap-backed dataset files) args.Data
// and args.Row(i) alias the source's storage directly — the engine's
// no-retention contract says kernels treat those slices as read-only and
// drop them before the call returns. A kernel that writes through the view
// corrupts the shared dataset for every other worker; one that stores the
// view into captured state (or appends the slice itself somewhere) holds a
// pointer that dangles once a mapped source unmaps.
//
// The analysis is syntactic: it tracks the kernel's args parameter,
// expressions rooted at args.Data / args.Row(...), sub-slices of those, and
// local variables assigned from them (to a fixpoint, so aliases of aliases
// count). Flagged shapes: element writes through a borrowed view, append
// with a borrowed view as the destination, append that retains the view
// itself as an element (append(x, row) — append(x, row...) copies scalars
// and is fine), and stores of a borrowed view to captured variables,
// package variables, or struct fields. Calls are assumed non-retaining
// (copy(dst, row) and math on row elements are the idiomatic reads);
// justified exceptions use //frds:vet-ignore rowalias.
//
// Block kernels get a second, looser contract for args.Acc(): the
// worker-local accumulation buffer is pooled across splits, so element
// writes are the buffer's whole purpose, but the slice itself must not outlive the call or be resized.
// Flagged shapes for Acc() views: append with the view as destination
// (resizing detaches the kernel from the pooled buffer), append retaining
// the view as an element, and stores to captured variables, package
// variables, or struct fields.
var RowAlias = &Analyzer{
	Name: "rowalias",
	Doc:  "kernels must not retain or mutate borrowed row views (args.Data, args.Row), nor retain or resize the pooled accumulator view (args.Acc)",
	Run:  runRowAlias,
}

func runRowAlias(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range v.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || !kernelFields[key.Name] {
						continue
					}
					if fl, ok := kv.Value.(*ast.FuncLit); ok {
						checkRowAlias(pass, key.Name, fl)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !kernelFields[sel.Sel.Name] || i >= len(v.Rhs) {
						continue
					}
					if fl, ok := v.Rhs[i].(*ast.FuncLit); ok {
						checkRowAlias(pass, sel.Sel.Name, fl)
					}
				}
			}
			return true
		})
	}
}

// checkRowAlias analyzes one kernel function literal.
func checkRowAlias(pass *Pass, field string, fl *ast.FuncLit) {
	argName := kernelArgName(fl)
	if argName == "" || argName == "_" {
		return
	}
	borrowed := collectViews(fl, func(e ast.Expr, aliases map[string]bool) bool {
		return isBorrowedExpr(e, argName, aliases)
	})
	pooled := collectViews(fl, func(e ast.Expr, aliases map[string]bool) bool {
		return isPooledExpr(e, argName, aliases)
	})
	declared := declaredIdents(fl)
	isB := func(e ast.Expr) bool { return isBorrowedExpr(e, argName, borrowed) }
	isP := func(e ast.Expr) bool { return isPooledExpr(e, argName, pooled) }

	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				// Writes through a borrowed view: row[j] = x, args.Data[k] = x.
				// (Element writes through the pooled Acc() view are sanctioned —
				// that buffer exists to be written.)
				if ix, ok := lhs.(*ast.IndexExpr); ok && isB(ix.X) {
					pass.Report(lhs, "%s kernel writes through borrowed row view %q; row views alias the data source (read-only, see freeride.ReductionArgs.Data)", field, exprText(ix.X))
					continue
				}
				if v.Tok == token.DEFINE || i >= len(v.Rhs) {
					continue
				}
				// Retention: borrowed or pooled view stored outside the
				// kernel's frame.
				kind := ""
				switch {
				case isB(v.Rhs[i]):
					kind = "borrowed row"
				case isP(v.Rhs[i]):
					kind = "pooled accumulator"
				default:
					continue
				}
				root := rootIdent(lhs)
				switch {
				case root == nil || !declared[root.Name]:
					pass.Report(lhs, "%s kernel stores %s view into captured state %q; views must not outlive the kernel call (copy instead)", field, kind, exprText(lhs))
				case isFieldStore(lhs):
					pass.Report(lhs, "%s kernel stores %s view into struct field %q; the struct can escape the call — copy instead", field, kind, exprText(lhs))
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := v.X.(*ast.IndexExpr); ok && isB(ix.X) {
				pass.Report(v, "%s kernel writes through borrowed row view %q; row views alias the data source (read-only)", field, exprText(ix.X))
			}
		case *ast.CallExpr:
			id, ok := v.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || len(v.Args) == 0 {
				return true
			}
			if isB(v.Args[0]) {
				pass.Report(v, "%s kernel appends to borrowed row view %q; growth writes into (or re-uses) the source's backing array", field, exprText(v.Args[0]))
			} else if isP(v.Args[0]) {
				pass.Report(v, "%s kernel appends to pooled accumulator view %q; the engine recycles Acc() buffers across splits — resizing detaches the kernel from the pooled cells", field, exprText(v.Args[0]))
			}
			if v.Ellipsis == token.NoPos {
				for _, arg := range v.Args[1:] {
					if isB(arg) {
						pass.Report(v, "%s kernel retains borrowed row view %q by appending it; append the row's copy (or its elements with ...) instead", field, exprText(arg))
					} else if isP(arg) {
						pass.Report(v, "%s kernel retains pooled accumulator view %q by appending it; the buffer is reused after the call — append a copy instead", field, exprText(arg))
					}
				}
			}
		}
		return true
	})
}

// kernelArgName returns the kernel literal's first parameter name — the
// *ReductionArgs/*BlockArgs handle the borrowed views hang off.
func kernelArgName(fl *ast.FuncLit) string {
	if fl.Type.Params == nil || len(fl.Type.Params.List) == 0 {
		return ""
	}
	names := fl.Type.Params.List[0].Names
	if len(names) == 0 {
		return ""
	}
	return names[0].Name
}

// collectViews finds local variables aliasing a tracked view, iterating to
// a fixpoint so chains (row := args.Row(i); r2 := row[1:]) all count. The
// predicate decides whether an expression is a view, given the aliases
// found so far.
func collectViews(fl *ast.FuncLit, isView func(e ast.Expr, aliases map[string]bool) bool) map[string]bool {
	aliases := map[string]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" || i >= len(v.Rhs) {
						continue
					}
					if !aliases[id.Name] && isView(v.Rhs[i], aliases) {
						aliases[id.Name] = true
						changed = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range v.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) && !aliases[name.Name] && isView(vs.Values[i], aliases) {
							aliases[name.Name] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return aliases
}

// isBorrowedExpr reports whether e evaluates to (a sub-slice of) a borrowed
// row view: args.Data, args.Row(...), a tracked alias, or a slice/paren
// wrapper of one. Indexing is NOT borrowed — row[j] is a scalar copy.
func isBorrowedExpr(e ast.Expr, argName string, borrowed map[string]bool) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return borrowed[v.Name]
	case *ast.ParenExpr:
		return isBorrowedExpr(v.X, argName, borrowed)
	case *ast.SliceExpr:
		return isBorrowedExpr(v.X, argName, borrowed)
	case *ast.SelectorExpr:
		id, ok := v.X.(*ast.Ident)
		return ok && id.Name == argName && v.Sel.Name == "Data"
	case *ast.CallExpr:
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Row" {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == argName
	}
	return false
}

// isPooledExpr reports whether e evaluates to (a sub-slice of) the pooled
// accumulator view: args.Acc(), a tracked alias, or a slice/paren wrapper of
// one. Indexing is NOT pooled — acc[k] is a scalar cell.
func isPooledExpr(e ast.Expr, argName string, pooled map[string]bool) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return pooled[v.Name]
	case *ast.ParenExpr:
		return isPooledExpr(v.X, argName, pooled)
	case *ast.SliceExpr:
		return isPooledExpr(v.X, argName, pooled)
	case *ast.CallExpr:
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Acc" {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == argName
	}
	return false
}

// isFieldStore reports whether lhs writes a struct field (x.f, x.y.f, ...).
func isFieldStore(lhs ast.Expr) bool {
	for {
		switch v := lhs.(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.ParenExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		case *ast.IndexExpr:
			lhs = v.X
		default:
			return false
		}
	}
}

// exprText renders a short source-ish form of simple expressions for
// messages (identifier chains and calls; falls back to the root name).
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprText(v.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprText(v.X) + "[...]"
	case *ast.SliceExpr:
		return exprText(v.X) + "[...]"
	case *ast.ParenExpr:
		return exprText(v.X)
	case *ast.StarExpr:
		return "*" + exprText(v.X)
	}
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "expression"
}
