package freeride

import (
	"context"
	"errors"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/verify"
)

// TestSpecVerify pins the diagnostic each illegal spec shape produces — the
// same pass that gates Engine.RunContext before any worker starts.
func TestSpecVerify(t *testing.T) {
	reduce := func(args *ReductionArgs) error { return nil }
	blockReduce := func(args *BlockArgs) error { return nil }
	obj := ObjectSpec{Groups: 2, Elems: 3, Op: robj.OpAdd}

	cases := []struct {
		name string
		spec Spec
		code verify.Code
	}{
		{"no reduction", Spec{Object: obj}, verify.CodeNoReduction},
		{"negative object shape",
			Spec{Object: ObjectSpec{Groups: -1, Elems: 3, Op: robj.OpAdd}, Reduction: reduce},
			verify.CodeBadObjectShape},
		{"BlockReduction without object",
			Spec{BlockReduction: blockReduce},
			verify.CodeNoState},
		{"Combine without object",
			Spec{Reduction: reduce, Combine: func(o *robj.Object) error { return nil }},
			verify.CodeNoState},
		{"no state at all", Spec{Reduction: reduce}, verify.CodeNoState},
	}

	eng := New(Config{Threads: 1})
	defer eng.Close()
	src := dataset.NewMemorySource(dataset.NewMatrix(4, 2))

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.spec.Verify()
			found := false
			for _, d := range ds {
				if d.Code == tc.code && d.Severity == verify.SeverityError {
					found = true
				}
			}
			if !found {
				t.Fatalf("Spec.Verify: no %s error; got %v", tc.code, ds)
			}
			// The engine must reject the same spec before running anything.
			if _, err := eng.RunContext(context.Background(), tc.spec, src); err == nil {
				t.Fatal("Engine.RunContext accepted a spec Verify rejects")
			}
		})
	}
}

// TestRunKeepsErrNoReductionSentinel: callers select on ErrNoReduction with
// errors.Is, so the sentinel must survive the verifier refactor.
func TestRunKeepsErrNoReductionSentinel(t *testing.T) {
	eng := New(Config{Threads: 1})
	defer eng.Close()
	_, err := eng.RunContext(context.Background(), Spec{Object: ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd}},
		dataset.NewMemorySource(dataset.NewMatrix(2, 2)))
	if !errors.Is(err, ErrNoReduction) {
		t.Fatalf("want ErrNoReduction, got %v", err)
	}
}

// TestSpecVerifyClean: every legal shape the engine supports verifies with
// zero diagnostics.
func TestSpecVerifyClean(t *testing.T) {
	reduce := func(args *ReductionArgs) error { return nil }
	obj := ObjectSpec{Groups: 2, Elems: 3, Op: robj.OpAdd}
	for name, spec := range map[string]Spec{
		"object only": {Object: obj, Reduction: reduce},
		"fused":       {Object: obj, BlockReduction: func(args *BlockArgs) error { return nil }},
		"both kernels": {Object: obj, Reduction: reduce,
			BlockReduction: func(args *BlockArgs) error { return nil },
			Combine:        func(o *robj.Object) error { return nil }},
	} {
		if ds := spec.Verify(); len(ds) != 0 {
			t.Errorf("%s: unexpected diagnostics %v", name, ds)
		}
	}
}
