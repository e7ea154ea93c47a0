// Command freeride-translate shows the translator's work for the built-in
// reduction classes: the dataset's linearization metadata (the paper's
// Fig. 6 information) and the translate-time verifier's findings at every
// optimization level, the runtime analog of the paper's compiler refusing
// a reduction it cannot translate.
//
// Usage:
//
//	freeride-translate -class kmeans -k 100 -dim 10
//	freeride-translate -class pca-cov -dim 64
//
// It can also start from Chapel source text (the subset chapel.ParseDecls
// accepts), showing the mapping metadata for an access path through the
// declared structure — the paper's Fig. 6 worked end to end:
//
//	freeride-translate -decl testdata/fig6.chpl -var data -path b1,a1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/verify"
)

func main() {
	var (
		className = flag.String("class", "kmeans", "reduction class: kmeans | pca-mean | pca-cov")
		k         = flag.Int("k", 8, "k-means cluster count")
		dim       = flag.Int("dim", 4, "feature dimensionality")
		declFile  = flag.String("decl", "", "Chapel declaration file; with -var/-path, show its mapping metadata")
		varName   = flag.String("var", "", "declared variable to analyze (with -decl)")
		pathFlag  = flag.String("path", "", "comma-separated field path through the variable (with -decl)")
	)
	flag.Parse()

	req := metaRequest{class: *className, k: *k, dim: *dim, decl: *declFile, varName: *varName, path: *pathFlag}
	os.Exit(runMeta(req, os.Stdout, os.Stderr))
}

// metaRequest names what the default and -decl modes print metadata for:
// a Chapel declaration file's variable and field path when decl is set,
// otherwise a built-in class at k and dim.
type metaRequest struct {
	class  string
	k, dim int

	decl, varName, path string
}

// runMeta prints the Fig. 6 linearization metadata to w. For a built-in
// class it then runs the translate-time verifier at every optimization
// level, printing each level's tally to w and its diagnostics to errw
// compiler-style (pos: severity[CODE]: msg). Returns the process exit
// code: 1 on an error, an FRV error included, 2 on an unknown class.
func runMeta(req metaRequest, w, errw io.Writer) int {
	if req.decl != "" {
		if err := declMeta(w, req.decl, req.varName, req.path); err != nil {
			fmt.Fprintln(errw, "freeride-translate:", err)
			return 1
		}
		return 0
	}
	var (
		cls    *core.ReductionClass
		dataTy *chapel.Type
	)
	switch req.class {
	case "kmeans":
		cents := apps.BoxPoints(zeroMatrix(req.k, req.dim))
		cls = apps.KMeansClass(req.k, req.dim, cents)
		dataTy = pointArrayType(req.dim, 1000)
	case "pca-mean":
		cls = apps.PCAMeanClass(req.dim)
		dataTy = realMatrixType(req.dim, 1000)
	case "pca-cov":
		cls = apps.PCACovClass(req.dim, chapel.RealArray(make([]float64, req.dim)...))
		dataTy = realMatrixType(req.dim, 1000)
	default:
		fmt.Fprintf(errw, "freeride-translate: unknown class %q\n", req.class)
		return 2
	}
	meta, err := core.MetaFor(dataTy, cls.Path...)
	if err != nil {
		fmt.Fprintln(errw, "freeride-translate:", err)
		return 1
	}
	fmt.Fprintln(w, "=== information collected during linearization (Fig. 6) ===")
	fmt.Fprintln(w, meta)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "=== translate-time verifier ===")
	failed := false
	for _, opt := range core.OptLevels() {
		errs := 0
		ds := core.VerifyType(cls, dataTy, opt)
		for _, d := range ds {
			fmt.Fprintln(errw, d)
			if d.Severity == verify.SeverityError {
				errs++
			}
		}
		fmt.Fprintf(w, "%-10s %d errors, %d warnings\n", opt.String()+":", errs, len(ds.Warnings()))
		failed = failed || errs > 0
	}
	if failed {
		return 1
	}
	return 0
}

func zeroMatrix(rows, cols int) *dataset.Matrix {
	return dataset.NewMatrix(rows, cols)
}

func pointArrayType(dim, rows int) *chapel.Type {
	return chapel.ArrayType(chapel.RecordType("Point",
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, dim)}), 1, rows)
}

func realMatrixType(dim, rows int) *chapel.Type {
	return chapel.ArrayType(chapel.ArrayType(chapel.RealType(), 1, dim), 1, rows)
}

// declMeta parses a Chapel declaration file and prints the Fig. 6
// linearization metadata for the named variable and access path.
func declMeta(w io.Writer, path, varName, fieldPath string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	decls, err := chapel.ParseDecls(string(src))
	if err != nil {
		return err
	}
	if varName == "" {
		if len(decls.VarOrder) == 0 {
			return fmt.Errorf("no variables declared in %s", path)
		}
		varName = decls.VarOrder[0]
	}
	ty, err := decls.Var(varName)
	if err != nil {
		return err
	}
	var fields []string
	if fieldPath != "" {
		fields = strings.Split(fieldPath, ",")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
	}
	fmt.Fprintf(w, "var %s: %s\n", varName, ty)
	fmt.Fprintf(w, "linearized size: %d bytes\n\n", core.SizeOf(ty))
	meta, err := core.MetaFor(ty, fields...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== information collected during linearization (Fig. 6) ===")
	fmt.Fprintln(w, meta)
	return nil
}
