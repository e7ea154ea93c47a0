package core

import (
	"errors"
	"strings"
	"testing"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/verify"
)

// flatRealType is [1..n][1..dim] real.
func flatRealType(n, dim int) *chapel.Type {
	return chapel.ArrayType(chapel.ArrayType(chapel.RealType(), 1, dim), 1, n)
}

// TestVerifyRejections pins, for every way a class can be untranslatable,
// the diagnostic code, severity, and message users see — the contract
// cmd/freeride-translate renders and Translate is gated on.
func TestVerifyRejections(t *testing.T) {
	base := func() *ReductionClass { return kmeansClass(4, 3, makeCentroids(4, 3, 1)) }
	intRuns := chapel.ArrayType(chapel.ArrayType(chapel.IntType(), 1, 3), 1, 4)

	cases := []struct {
		name     string
		class    *ReductionClass
		dataTy   *chapel.Type
		opt      OptLevel
		code     verify.Code
		severity verify.Severity
		msg      string // required fragment of the rendered message
	}{
		{
			name: "nil class", class: nil, dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeNoKernel, severity: verify.SeverityError,
			msg: "needs a class with a kernel",
		},
		{
			name: "no kernel",
			class: func() *ReductionClass {
				c := base()
				c.Kernel = nil
				return c
			}(),
			dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeNoKernel, severity: verify.SeverityError,
			msg: "needs a class with a kernel",
		},
		{
			name: "non-real dataset", class: base(),
			dataTy: chapel.ArrayType(chapel.ArrayType(chapel.IntType(), 1, 3), 1, 10), opt: OptNone,
			code: verify.CodeNotAllReal, severity: verify.SeverityError,
			msg: "all-real dataset",
		},
		{
			name: "non-array dataset",
			class: func() *ReductionClass {
				c := base()
				c.Path = nil
				return c
			}(),
			dataTy: chapel.RealType(), opt: OptNone,
			code: verify.CodeBadPath, severity: verify.SeverityError,
			msg: "non-array type",
		},
		{
			name: "unresolvable access path",
			class: func() *ReductionClass {
				c := base()
				c.Path = []string{"nope"}
				return c
			}(),
			dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeBadPath, severity: verify.SeverityError,
			msg: "nope",
		},
		{
			name: "three-level addressing",
			class: func() *ReductionClass {
				c := base()
				c.Path = nil
				c.HotVars = nil
				return c
			}(),
			dataTy: chapel.ArrayType(flatRealType(4, 3), 1, 10), opt: OptNone,
			code: verify.CodeBadLevels, severity: verify.SeverityError,
			msg: "2-level addressing",
		},
		{
			name: "empty reduction object",
			class: func() *ReductionClass {
				c := base()
				c.Object = freeride.ObjectSpec{}
				return c
			}(),
			dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeBadObjectShape, severity: verify.SeverityError,
			msg: "no cells",
		},
		{
			name: "unknown optimization level", class: base(),
			dataTy: pointsType(10, 3), opt: OptLevel(7),
			code: verify.CodeBadOptLevel, severity: verify.SeverityError,
			msg: "unknown optimization level",
		},
		{
			name: "hot variable without a value",
			class: func() *ReductionClass {
				c := base()
				c.HotVars = []HotVar{{Value: nil}}
				return c
			}(),
			dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeHotShape, severity: verify.SeverityError,
			msg: "no value",
		},
		{
			name: "boxed hot variable with non-real runs",
			class: func() *ReductionClass {
				c := base()
				c.HotVars = []HotVar{{Value: chapel.NewArray(intRuns)}}
				return c
			}(),
			dataTy: pointsType(10, 3), opt: OptNone,
			code: verify.CodeHotShape, severity: verify.SeverityError,
			msg: "boxed accessor would fail",
		},
		{
			name: "opt-2 hot variable not all-real",
			class: func() *ReductionClass {
				c := base()
				c.HotVars = []HotVar{{Value: chapel.NewArray(intRuns)}}
				return c
			}(),
			dataTy: pointsType(10, 3), opt: Opt2,
			code: verify.CodeHotNotAllReal, severity: verify.SeverityError,
			msg: "all-real hot state",
		},
		{
			name: "opt-3 without a BlockKernel", class: base(),
			dataTy: pointsType(10, 3), opt: Opt3,
			code: verify.CodeOpt3NoBlockKernel, severity: verify.SeverityWarning,
			msg: "falls back",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := VerifyType(tc.class, tc.dataTy, tc.opt)
			var hit *verify.Diagnostic
			for i := range ds {
				if ds[i].Code == tc.code {
					hit = &ds[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s diagnostic; got %v", tc.code, ds)
			}
			if hit.Severity != tc.severity {
				t.Errorf("severity = %s, want %s", hit.Severity, tc.severity)
			}
			if !strings.Contains(hit.Msg, tc.msg) {
				t.Errorf("message %q does not mention %q", hit.Msg, tc.msg)
			}
			// Errors must gate Translate with the identical diagnostics.
			if tc.severity == verify.SeverityError {
				_, err := Translate(tc.class, nil, tc.opt)
				if err == nil {
					t.Fatal("Translate accepted a class Verify rejects")
				}
			}
		})
	}
}

func TestVerifyNilData(t *testing.T) {
	ds := Verify(kmeansClass(4, 3, makeCentroids(4, 3, 1)), nil, OptNone)
	if !ds.HasErrors() || ds[0].Msg != "core: translation needs a dataset" {
		t.Fatalf("nil data: got %v", ds)
	}
}

// TestVerifyClean: a translatable class yields zero diagnostics at every
// level that is fully implementable, and only the documented FRV030 warning
// at opt-3 when no BlockKernel is declared.
func TestVerifyClean(t *testing.T) {
	data := makePoints(50, 3, 1)
	cls := kmeansClass(4, 3, makeCentroids(4, 3, 2))
	for _, opt := range []OptLevel{OptNone, Opt1, Opt2} {
		if ds := Verify(cls, data, opt); len(ds) != 0 {
			t.Fatalf("%s: unexpected diagnostics %v", opt, ds)
		}
	}
	ds := Verify(cls, data, Opt3)
	if ds.HasErrors() {
		t.Fatalf("opt-3: unexpected errors %v", ds)
	}
	if len(ds.Warnings()) != 1 || ds.Warnings()[0].Code != verify.CodeOpt3NoBlockKernel {
		t.Fatalf("opt-3: want exactly the FRV030 warning, got %v", ds)
	}
	// A warning never blocks translation.
	if _, err := Translate(cls, data, Opt3); err != nil {
		t.Fatalf("warning blocked Translate: %v", err)
	}
}

// TestVerifyErrorRendering checks the compiler-style rendering surfaced by
// cmd/freeride-translate: position, severity, code, message.
func TestVerifyErrorRendering(t *testing.T) {
	cls := kmeansClass(4, 3, makeCentroids(4, 3, 1))
	cls.Object = freeride.ObjectSpec{Groups: -1, Elems: 2, Op: robj.OpAdd}
	err := Verify(cls, makePoints(10, 3, 1), OptNone).Err()
	if err == nil {
		t.Fatal("want error")
	}
	for _, frag := range []string{"kmeans", "error[FRV007]", "no cells"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	if verr := (*verify.Error)(nil); !errors.As(err, &verr) {
		t.Fatal("verifier errors must unwrap to *verify.Error for structured consumers")
	}
}
