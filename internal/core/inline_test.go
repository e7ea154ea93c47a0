package core

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHotPathInlines pins the property the translated executor's speed rests
// on: the accessors a kernel calls once per element (or per centroid per
// element in the fallbacks) inline into it, so the strength-reduced loads are
// plain slice arithmetic in the kernel body and only the generated/boxed slow
// bodies cost a call. The same holds for the operator the opt-3 sparse
// executor folds every nonzero into its row run with (robj.Op.Apply), for
// the split handle's Row, Acc and Accumulate that fused kernels call once
// per row, for the split handle's AccumulateRange that the k-means, PCA and
// EM kernels call once per row, and for the reduction object's cell check,
// which keeps the replicated Accumulate free of calls. The compiler's own
// -m report is the oracle; an edit that pushes one of them past the inliner's budget fails
// here instead of showing up as a silent 1.5× on kmeans_translated,
// ingest_fused or spmv_power.
func TestHotPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m",
		"chapelfreeride/internal/core", "chapelfreeride/internal/freeride",
		"chapelfreeride/internal/robj").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	report := string(out)
	for _, fn := range []string{
		"(*Vec).Row",
		"(*Vec).At",
		"(*StateVec).Row",
		"(*StateVec).At",
		"(*StateVec).Dense",
		"(*ReductionArgs).Scratch",
		"(*ReductionArgs).Accumulate",
		"(*ReductionArgs).AccumulateRange",
		"(*ReductionArgs).Row",
		"(*BlockArgs).Accumulate",
		"(*BlockArgs).Acc",
		"Op.Apply",
		"(*Object).cell",
	} {
		if !strings.Contains(report, "can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable", fn)
		}
	}
}
