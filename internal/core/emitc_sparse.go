package core

import (
	"fmt"
	"strings"
)

// EmitSparseC renders the C-like executor the translator generates for a
// sparse class at the given optimization level — the inspector–executor
// counterpart of EmitC. Like EmitC, the output is documentation: it makes
// the table-driven addressing inspectable next to the dense affine shapes.
// The inspector itself has no emitted form (it runs once at translate time,
// in the runtime); what the executor relies on from it is stated in the
// header comment.
func EmitSparseC(class *SparseClass, opt OptLevel) (string, error) {
	if class == nil {
		return "", fmt.Errorf("core: EmitSparseC needs a class")
	}
	// Gate emission on the structural half of the sparse verifier (the
	// table proofs are data-dependent and need a materialized plan).
	if err := VerifySparse(class, nil, opt).Err(); err != nil {
		return "", err
	}
	name := sanitizeIdent(class.Name)
	if name == "" {
		name = "sparse_reduction"
	}
	groups := class.Object.Groups
	hasHot := class.Hot != nil

	var b strings.Builder
	fmt.Fprintf(&b, "/* %s: sparse reduction translated to FREERIDE (inspector-executor, %s) */\n", name, opt)
	fmt.Fprintf(&b, "/* reduction object: %d group(s) x 1 element(s) */\n", groups)
	fmt.Fprintf(&b, "/* inspector (translate time): COO entries sorted to CSR order; row\n")
	fmt.Fprintf(&b, "   pointers row_ptr[r] (row r's first entry, rows+1 of them) and\n")
	fmt.Fprintf(&b, "   in_table[e] (gather offset) materialized and proven total +\n")
	fmt.Fprintf(&b, "   in-bounds (FRV013/FRV014) before any worker starts, so the\n")
	fmt.Fprintf(&b, "   executor below elides every per-entry bounds check */\n")

	if opt >= Opt3 {
		fmt.Fprintf(&b, "void %s_block_reduction(block_args_t* args) {\n", name)
		fmt.Fprintf(&b, "    /* opt-3 fusion: worker-local mirror of the reduction object —\n")
		fmt.Fprintf(&b, "       dense when the split touches most cells, hashed when the\n")
		fmt.Fprintf(&b, "       touched-cell set is sparse (the runtime picks per job) */\n")
		fmt.Fprintf(&b, "    double acc[%d];\n", groups)
		fmt.Fprintf(&b, "    fill_identity(acc, %d);\n", groups)
		fmt.Fprintf(&b, "    int n = args->num_rows, b = args->begin;\n")
		fmt.Fprintf(&b, "    if (n == 0) return;\n")
		g := "0.0" // gather-free reduction
		if hasHot {
			fmt.Fprintf(&b, "    /* gather vector linearized by the compiler (opt-2) */\n")
			fmt.Fprintf(&b, "    double* x = linearized_hot_0; /* was: %s */\n", class.Hot.Ty)
			fmt.Fprintf(&b, "    /* gather first, with no call and no branch: every x[in[e]]\n")
			fmt.Fprintf(&b, "       read is in flight before the fold needs it */\n")
			fmt.Fprintf(&b, "    const int* in = in_table + b;\n")
			fmt.Fprintf(&b, "    double* g = worker_scratch(args->worker, n);\n")
			fmt.Fprintf(&b, "    for (int e = 0; e < n; e++)\n")
			fmt.Fprintf(&b, "        g[e] = x[in[e]];\n")
			g = "g[e]"
		}
		fmt.Fprintf(&b, "    /* CSR row fold: a row's entries in a split are one piece */\n")
		fmt.Fprintf(&b, "    const double* v = args->data;\n")
		fmt.Fprintf(&b, "    int e = 0;\n")
		fmt.Fprintf(&b, "    for (int r = row_of(row_ptr, b); e < n; r++) { /* one binary search */\n")
		fmt.Fprintf(&b, "        int end = min(row_ptr[r + 1] - b, n);\n")
		fmt.Fprintf(&b, "        if (e == end) continue;          /* empty row */\n")
		fmt.Fprintf(&b, "        double sum = kernel(v[e], %s); /* register sum of the piece */\n", g)
		fmt.Fprintf(&b, "        for (e++; e < end; e++)\n")
		fmt.Fprintf(&b, "            sum op= kernel(v[e], %s); /* no lookup, no lock */\n", g)
		fmt.Fprintf(&b, "        acc[r] op= sum;                  /* one accumulate per row piece */\n")
		fmt.Fprintf(&b, "    }\n")
		fmt.Fprintf(&b, "    /* one scattered flush of the touched cells per split */\n")
		fmt.Fprintf(&b, "    accumulate_block(args->worker, acc);\n")
		fmt.Fprintf(&b, "}\n")
		return b.String(), nil
	}

	fmt.Fprintf(&b, "void %s_reduction(reduction_args_t* args) {\n", name)
	if hasHot {
		switch {
		case opt >= Opt2:
			fmt.Fprintf(&b, "    /* gather vector linearized by the compiler (opt-2) */\n")
			fmt.Fprintf(&b, "    double* x = linearized_hot_0; /* was: %s */\n", class.Hot.Ty)
		default:
			fmt.Fprintf(&b, "    /* gather vector accessed through Chapel structures */\n")
			fmt.Fprintf(&b, "    chpl_%s* x = &chpl_hot_0;\n", sanitizeIdent(elemName(class.Hot.Ty)))
		}
	}
	fmt.Fprintf(&b, "    if (args->num_rows == 0) return;\n")
	fmt.Fprintf(&b, "    int r = row_of(row_ptr, args->begin); /* one binary search per split */\n")
	fmt.Fprintf(&b, "    for (int i = 0; i < args->num_rows; i++) {\n")
	fmt.Fprintf(&b, "        int e = args->begin + i;      /* global nonzero index */\n")
	fmt.Fprintf(&b, "        while (e >= row_ptr[r + 1]) r++; /* step to e's row */\n")
	fmt.Fprintf(&b, "        double v = args->data[i];     /* CSR-ordered value stream */\n")
	if hasHot {
		if opt >= Opt2 {
			fmt.Fprintf(&b, "        double g = x[in_table[e]];    /* table-driven gather */\n")
		} else {
			fmt.Fprintf(&b, "        double g = x->vals[in_table[e]]; /* boxed table-driven gather */\n")
		}
	} else {
		fmt.Fprintf(&b, "        double g = 0.0;               /* gather-free reduction */\n")
	}
	fmt.Fprintf(&b, "        /* scattered write: accumulate(group, elem, value) into row r's cell */\n")
	fmt.Fprintf(&b, "        accumulate(r, 0, kernel(v, g));\n")
	fmt.Fprintf(&b, "    }\n")
	fmt.Fprintf(&b, "}\n")
	return b.String(), nil
}
