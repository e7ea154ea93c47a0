package vet

import (
	"go/ast"
	"go/token"
)

// kernelFields are the struct fields / assignment targets whose function
// literals are reduction bodies: FREERIDE runs them concurrently across
// worker slots, so they must be pure up to their explicit accumulation
// channel (the ReductionArgs/BlockArgs reduction object).
var kernelFields = map[string]bool{
	"Reduction":      true,
	"BlockReduction": true,
	"Kernel":         true,
	"BlockKernel":    true,
}

// KernelPure flags reduction-kernel bodies that capture and write shared
// state, read nondeterministic sources (time.Now, math/rand), or spawn
// goroutines. FREERIDE's contract is that local reductions are
// order-independent and isolated per worker slot; a kernel that mutates a
// captured variable races across slots, and one that reads the clock or a
// shared RNG produces run-to-run-unstable results that break the
// bit-identical opt-level equivalence the translator guarantees.
var KernelPure = &Analyzer{
	Name: "kernelpure",
	Doc:  "reduction kernels must not write captured state, read time/rand, or spawn goroutines",
	Run:  runKernelPure,
}

func runKernelPure(pass *Pass) {
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
						checkKernelBody(pass, key.Name, fl)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !kernelFields[sel.Sel.Name] || i >= len(v.Rhs) {
						continue
					}
					if fl, ok := v.Rhs[i].(*ast.FuncLit); ok {
						checkKernelBody(pass, sel.Sel.Name, fl)
					}
				}
			}
			return true
		})
	}
}

// checkKernelBody walks one kernel function literal.
func checkKernelBody(pass *Pass, field string, fl *ast.FuncLit) {
	declared := declaredIdents(fl)
	pkgVars := pass.Pkg.packageLevelVars()
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			pass.Report(v, "%s kernel spawns a goroutine; reduction bodies run on the engine's worker pool and must not fork", field)
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if id.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
						pass.Report(v, "%s kernel calls time.%s; kernels must be deterministic (pass timings in via the spec instead)", field, sel.Sel.Name)
					}
					if id.Name == "rand" {
						pass.Report(v, "%s kernel calls rand.%s; kernels must be deterministic (seed per-split data outside the kernel)", field, sel.Sel.Name)
					}
				}
			}
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				reportCapturedWrite(pass, field, lhs, declared, pkgVars)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(pass, field, v.X, declared, pkgVars)
		}
		return true
	})
}

// reportCapturedWrite flags a write whose base identifier is neither
// declared inside the kernel nor one of its parameters. Writes through
// parameters (the args struct, the acc buffer) are the kernel's sanctioned
// channels; writes to anything captured from an enclosing scope are
// cross-worker races.
func reportCapturedWrite(pass *Pass, field string, lhs ast.Expr, declared, pkgVars map[string]bool) {
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" || declared[root.Name] {
		return
	}
	what := "captured variable"
	if pkgVars[root.Name] {
		what = "package-level variable"
	}
	pass.Report(lhs, "%s kernel writes %s %q; worker slots run concurrently — accumulate through the reduction object instead", field, what, root.Name)
}

// declaredIdents collects every identifier the function literal declares:
// parameters, named results, := definitions, var/const declarations, range
// variables, and type-switch bindings — flow-insensitively over the whole
// body (nested function literals included, which is conservative in the
// right direction: their locals never count as captured).
func declaredIdents(fl *ast.FuncLit) map[string]bool {
	declared := map[string]bool{}
	addFields := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				declared[name.Name] = true
			}
		}
	}
	addFields(fl.Type.Params)
	addFields(fl.Type.Results)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			addFields(v.Type.Params)
			addFields(v.Type.Results)
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range v.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						declared[name.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if id, ok := e.(*ast.Ident); ok {
					declared[id.Name] = true
				}
			}
		case *ast.TypeSwitchStmt:
			if assign, ok := v.Assign.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return declared
}
