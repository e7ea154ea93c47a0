// Command frds-gen generates synthetic datasets in the repository's binary
// FRDS format (or CSV). Its FRDS files feed freeride-serve's "file" dataset
// recipes and dataset.OpenMappedSource.
//
// Usage:
//
//	frds-gen -kind gaussian -n 157286 -dim 10 -clusters 100 -o kmeans-12mb.frds
//	frds-gen -kind uniform -n 100000 -dim 1000 -o pca-large.frds
//	frds-gen -kind uniform -n 15728640 -dim 10 -layout col -o cols.frds
//	frds-gen -kind uniform -n 100000 -dim 10 -format csv -o points.csv
//
// The first line reproduces the paper's 12 MB k-means dataset; -n 15728640
// gives the 1.2 GB one. -layout row (the default) writes the v2 row-major
// payload that mmap-backed ingestion serves zero-copy; -layout col writes
// column-major for columnar scans. -format csv emits numeric CSV instead of
// FRDS, for exercising the parse-every-pass baseline.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"chapelfreeride/internal/dataset"
)

func main() {
	var (
		kind     = flag.String("kind", "gaussian", "dataset kind: gaussian | uniform")
		n        = flag.Int("n", 100000, "rows (data elements)")
		dim      = flag.Int("dim", 10, "columns (features)")
		clusters = flag.Int("clusters", 20, "gaussian mixture components")
		lo       = flag.Float64("lo", -5, "uniform lower bound")
		hi       = flag.Float64("hi", 5, "uniform upper bound")
		seed     = flag.Int64("seed", 42, "generation seed")
		layout   = flag.String("layout", "row", "binary payload layout: row | col")
		format   = flag.String("format", "frds", "output format: frds | csv")
		out      = flag.String("o", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "frds-gen: -o is required")
		os.Exit(2)
	}
	var lay dataset.Layout
	switch *layout {
	case "row":
		lay = dataset.RowMajor
	case "col":
		lay = dataset.ColMajor
	default:
		fmt.Fprintf(os.Stderr, "frds-gen: unknown layout %q (want row or col)\n", *layout)
		os.Exit(2)
	}

	var m *dataset.Matrix
	switch *kind {
	case "gaussian":
		m, _ = dataset.GaussianMixture(*n, *dim, *clusters, *seed)
	case "uniform":
		m = dataset.UniformMatrix(*n, *dim, *seed, *lo, *hi)
	default:
		fmt.Fprintf(os.Stderr, "frds-gen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	var err error
	switch *format {
	case "frds":
		err = dataset.WriteFileLayout(*out, m, lay)
	case "csv":
		err = writeCSVFile(*out, m)
	default:
		fmt.Fprintf(os.Stderr, "frds-gen: unknown format %q (want frds or csv)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "frds-gen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d×%d (%.1f MB)\n", *out, m.Rows, m.Cols, float64(m.SizeBytes())/(1<<20))
}

// writeCSVFile serializes m as headerless numeric CSV.
func writeCSVFile(path string, m *dataset.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	werr := dataset.WriteCSV(bw, m, nil)
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
