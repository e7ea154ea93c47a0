package core

import (
	"fmt"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/verify"
)

// Verify statically checks a reduction class bound to a dataset at an
// optimization level, before anything is linearized or any worker starts —
// the runtime analog of the paper's compile-time rejection of reductions
// that cannot be translated to FREERIDE. It returns every finding as a
// structured diagnostic; Translate is gated on the same checks, so a class
// that verifies cleanly (no error-severity findings) cannot fail shape,
// bounds, or index-map validation later.
func Verify(class *ReductionClass, data *chapel.Array, opt OptLevel) verify.Diagnostics {
	if data == nil {
		return verify.Diagnostics{{
			Pos: className(class), Severity: verify.SeverityError, Code: verify.CodeNotAllReal,
			Msg: "core: translation needs a dataset",
		}}
	}
	return VerifyType(class, data.Ty, opt)
}

// VerifyType is Verify from the declared dataset type alone — usable before
// any data exists, which is how cmd/freeride-translate checks a class the
// way a compiler front end would.
func VerifyType(class *ReductionClass, dataTy *chapel.Type, opt OptLevel) verify.Diagnostics {
	return verify.CheckPlan(PlanFor(class, dataTy, opt))
}

// className names a class in diagnostics, tolerating nil and unnamed ones.
func className(class *ReductionClass) string {
	if class == nil || class.Name == "" {
		return "class"
	}
	return class.Name
}

// PlanFor lowers a reduction class bound to a dataset type into the
// verifier's IR: every Chapel type resolved to word counts and the
// hoisted-index constants (row stride, base offset, inner stride) the
// translator will bake into the emitted loop nest. Problems found during
// lowering (unresolvable paths, non-real layouts) land in Plan.Pre.
func PlanFor(class *ReductionClass, dataTy *chapel.Type, opt OptLevel) *verify.Plan {
	p := &verify.Plan{Opt: int(opt), OptName: opt.String()}
	if class == nil {
		p.Class = "class"
		// Report only the root cause; suppress the cascade the zero-valued
		// class would otherwise produce.
		p.HasKernel = true
		p.Object = verify.Shape{Groups: 1, Elems: 1}
		p.Pre = verify.Diagnostics{{
			Pos: "class", Severity: verify.SeverityError, Code: verify.CodeNoKernel,
			Msg: "core: translation needs a class with a kernel",
		}}
		return p
	}
	p.Class = className(class)
	p.HasKernel = class.Kernel != nil
	p.HasBlockKernel = class.BlockKernel != nil
	p.Object = verify.Shape{Groups: class.Object.Groups, Elems: class.Object.Elems}

	if dataTy != nil {
		acc, pre := dataAccess(p.Class, dataTy, class.Path)
		p.Pre = append(p.Pre, pre...)
		p.Data = acc
	}
	for i, hv := range class.HotVars {
		name := fmt.Sprintf("hot[%d]", i)
		if hv.Value == nil {
			p.Pre = append(p.Pre, verify.Diagnostic{
				Pos: p.Class + ": " + name, Severity: verify.SeverityError, Code: verify.CodeHotShape,
				Msg: "core: hot variable has no value",
			})
			continue
		}
		var (
			acc *verify.Access
			pre verify.Diagnostics
		)
		if opt >= Opt2 {
			acc, pre = wordHotAccess(p.Class, name, hv.Value.Ty, hv.Path)
		} else {
			acc, pre = boxedHotAccess(p.Class, name, hv.Value.Ty, hv.Path)
		}
		p.Pre = append(p.Pre, pre...)
		if acc != nil {
			p.Hot = append(p.Hot, *acc)
		}
	}
	return p
}

// preError builds one lowering diagnostic.
func preError(class, name string, code verify.Code, format string, args ...any) verify.Diagnostics {
	return verify.Diagnostics{{
		Pos: class + ": " + name, Severity: verify.SeverityError, Code: code,
		Msg: fmt.Sprintf(format, args...),
	}}
}

// dataAccess lowers the dataset access path into the loop-nest constants
// TranslateWith/SpecFromWords will use, mirroring their meta pipeline
// (MetaFor → promoteFlatDataMeta → Words).
func dataAccess(class string, ty *chapel.Type, path []string) (*verify.Access, verify.Diagnostics) {
	if !AllReal(ty) {
		return nil, preError(class, "data", verify.CodeNotAllReal,
			"core: FREERIDE translation needs an all-real dataset, type is %s", ty)
	}
	meta, err := MetaFor(ty, path...)
	if err != nil {
		return nil, preError(class, "data", verify.CodeBadPath, "%v", err)
	}
	promoteFlatDataMeta(meta)
	if meta.Levels != 2 {
		return nil, preError(class, "data", verify.CodeBadLevels,
			"core: dataset access path %v needs 2-level addressing, got %d levels", path, meta.Levels)
	}
	wmeta, err := meta.Words()
	if err != nil {
		return nil, preError(class, "data", verify.CodeUnaligned, "%v", err)
	}
	ap := AffinePlanFromMeta(wmeta, ty.Len(), SizeOf(ty)/8)
	p := &verify.Plan{}
	ap.Verify(p)
	return p.Data, nil
}

// wordHotAccess lowers an opt-2 hot variable the way NewWordStateVec will
// bind it: linearized words addressed through the two-level mapping.
func wordHotAccess(class, name string, ty *chapel.Type, path []string) (*verify.Access, verify.Diagnostics) {
	if !AllReal(ty) {
		return nil, preError(class, name, verify.CodeHotNotAllReal,
			"core: opt-2 linearization needs all-real hot state, type is %s", ty)
	}
	meta, err := MetaFor(ty, path...)
	if err != nil {
		return nil, preError(class, name, verify.CodeBadPath, "core: hot variable: %v", err)
	}
	n := 0
	if ty.Kind == chapel.KindArray {
		n = ty.Len()
	}
	promoteFlatVectorMeta(meta, n)
	if meta.Levels != 2 {
		return nil, preError(class, name, verify.CodeBadLevels,
			"core: hot variable needs 2-level addressing, path %v gives %d", path, meta.Levels)
	}
	wmeta, err := meta.Words()
	if err != nil {
		return nil, preError(class, name, verify.CodeUnaligned, "core: hot variable: %v", err)
	}
	elems := n
	if ty.Kind == chapel.KindArray && ty.Elem.Kind == chapel.KindReal && len(path) == 0 {
		elems = 1 // vector promoted to 1×n
	}
	ap := AffinePlanFromMeta(wmeta, elems, SizeOf(ty)/8)
	acc := ap.access(name)
	return &acc, nil
}

// boxedHotAccess validates a generated/opt-1 hot variable against the
// shapes the boxed accessor can walk. It is stricter than the runtime
// accessor: a two-level array whose inner elements are not reals used to
// pass NewBoxedStateVec and then panic on the first read inside a worker
// (boxedState.at's *chapel.Real assertion); here it is rejected up front.
func boxedHotAccess(class, name string, ty *chapel.Type, path []string) (*verify.Access, verify.Diagnostics) {
	if ty.Kind != chapel.KindArray {
		return nil, preError(class, name, verify.CodeHotShape,
			"core: unsupported hot variable shape %s with path %v", ty, path)
	}
	elem := ty.Elem
	switch {
	case elem.Kind == chapel.KindArray && len(path) == 0:
		if elem.Elem.Kind != chapel.KindReal {
			return nil, preError(class, name, verify.CodeHotShape,
				"core: boxed hot variable %s is not an array of real runs — the boxed accessor would fail on the first read", ty)
		}
	case elem.Kind == chapel.KindRecord && len(path) == 1:
		f := elem.FieldIndex(path[0])
		if f < 0 {
			return nil, preError(class, name, verify.CodeBadPath,
				"core: record %s has no field %q", elem.Name, path[0])
		}
		inner := elem.Fields[f].Type
		if inner.Kind != chapel.KindArray || inner.Elem.Kind != chapel.KindReal {
			return nil, preError(class, name, verify.CodeHotShape,
				"core: hot path %v must select a real array, got %s", path, inner)
		}
	case elem.Kind == chapel.KindReal && len(path) == 0:
		// A flat vector is addressed as one 1×n element.
	default:
		return nil, preError(class, name, verify.CodeHotShape,
			"core: unsupported hot variable shape %s with path %v", ty, path)
	}
	return &verify.Access{Name: name, Boxed: true}, nil
}
