package vet

import (
	"go/ast"
)

// inspectorBuilders are the translate-time entry points of the sparse
// inspector–executor pipeline: each one sorts/linearizes the whole nonzero
// set or materializes index tables, an O(nnz) cost meant to be paid once
// per translation, never once per split.
var inspectorBuilders = map[string]bool{
	"NewInspectorPlan": true,
	"LinearizeCOO":     true,
	"TranslateSparse":  true,
}

// InspectorHoist flags loop-invariant work left inside reduction bodies:
// inspector/index-table construction, and args.Scratch look-ups nested in a
// for (the buffer is the same on every iteration; resolving it once per
// centroid per point is the call the opt-2 k-means kernel used to pay). The inspector–executor contract is that the inspector runs at
// translate time — its table proofs (FRV013/FRV014) are what let the
// executor skip per-element bounds checks — so building a plan inside a
// Reduction/BlockReduction/Kernel literal re-pays the full sort and
// allocation on every split of every pass, silently turning the O(nnz)
// executor into O(splits·nnz). Hoist the plan to translate time and
// capture the resulting tables instead.
var InspectorHoist = &Analyzer{
	Name: "inspectorhoist",
	Doc:  "inspector plans and index tables must be built at translate time, and scratch buffers fetched above the loop, not inside per-split reduction bodies",
	Run:  runInspectorHoist,
}

func runInspectorHoist(pass *Pass) {
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
						checkInspectorHoist(pass, key.Name, fl)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !kernelFields[sel.Sel.Name] || i >= len(v.Rhs) {
						continue
					}
					if fl, ok := v.Rhs[i].(*ast.FuncLit); ok {
						checkInspectorHoist(pass, sel.Sel.Name, fl)
					}
				}
			}
			return true
		})
	}
}

// checkInspectorHoist walks one kernel function literal for work that
// belongs above the loop it sits in: inspector construction anywhere in the
// body, and scratch-buffer look-ups inside a for. Matching is syntactic on
// the callee name (qualified or bare, so dot imports and intra-package calls
// both hit), consistent with the framework's no-go/types design.
func checkInspectorHoist(pass *Pass, field string, fl *ast.FuncLit) {
	// ast.Inspect reports leaving a node as nil, without saying which: keep
	// the open nodes' loop flags to know when a for is left.
	var isLoop []bool
	loops := 0
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if n == nil {
			if isLoop[len(isLoop)-1] {
				loops--
			}
			isLoop = isLoop[:len(isLoop)-1]
			return true
		}
		_, isFor := n.(*ast.ForStmt)
		_, isRange := n.(*ast.RangeStmt)
		isLoop = append(isLoop, isFor || isRange)
		if isFor || isRange {
			loops++
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if inspectorBuilders[name] {
			pass.Report(call, "%s kernel calls %s; inspectors run once at translate time — hoist the plan out of the per-split hot loop and capture its tables", field, name)
		}
		if name == "Scratch" && loops > 0 {
			pass.Report(call, "%s kernel calls Scratch inside a for; loop-invariant scratch look-up: hoist above the loop", field)
		}
		return true
	})
}
