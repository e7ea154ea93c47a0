package apps

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// naiveNearest is the one-centroid loop nearest ran before it went four
// centroids at a time: the oracle nearest must match index for index.
func naiveNearest(point []float64, cents []float64, k, dim int) int {
	best, bestDist := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		var d float64
		cc := cents[c*dim : (c+1)*dim]
		pt := point[:len(cc)]
		for j, x := range cc {
			diff := pt[j] - x
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

var (
	nearestKs   = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 100, 101}
	nearestDims = []int{1, 2, 3, 10, 32}
)

func checkNearest(t *testing.T, name string, point, cents []float64, k, dim int) {
	t.Helper()
	if got, want := nearest(point, cents, k, dim), naiveNearest(point, cents, k, dim); got != want {
		t.Errorf("%s k=%d dim=%d: nearest = %d, one-centroid loop = %d", name, k, dim, got, want)
	}
}

// TestNearestMatchesNaive pins the blocked distance loop to the
// one-centroid loop over every k mod 4 tail and the dims the apps use, on
// random, tied and non-finite inputs.
func TestNearestMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range nearestKs {
		for _, dim := range nearestDims {
			cents := make([]float64, k*dim)
			point := make([]float64, dim)
			fresh := func() {
				for i := range cents {
					cents[i] = rng.NormFloat64()
				}
				for j := range point {
					point[j] = rng.NormFloat64()
				}
			}
			for rep := 0; rep < 20; rep++ {
				fresh()
				checkNearest(t, "random", point, cents, k, dim)
				// Small integers: many exact ties between centroids.
				for i := range cents {
					cents[i] = float64(rng.Intn(3))
				}
				for j := range point {
					point[j] = float64(rng.Intn(3))
				}
				checkNearest(t, "integers", point, cents, k, dim)
			}

			// Duplicate centroids: every copy of the closest one ties, and
			// the lowest index must win wherever the copies fall in a block.
			fresh()
			for _, pair := range [][2]int{{k - 1, k - 1}, {k / 2, k - 1}, {0, k - 1}, {k / 3, k/3 + 1}} {
				lo, hi := pair[0], pair[1]
				if hi >= k {
					continue
				}
				for c := 0; c < k; c++ {
					copy(cents[c*dim:(c+1)*dim], point)
					for j := range point {
						cents[c*dim+j] += 1 + float64(c)
					}
				}
				for _, c := range []int{lo, hi} {
					copy(cents[c*dim:(c+1)*dim], point)
					cents[c*dim] += 0.5
				}
				checkNearest(t, "duplicates", point, cents, k, dim)
				if got := nearest(point, cents, k, dim); got != lo {
					t.Errorf("duplicates k=%d dim=%d: nearest = %d, want the lower copy %d", k, dim, got, lo)
				}
			}
			// All centroids equal: index 0.
			for c := 0; c < k; c++ {
				copy(cents[c*dim:(c+1)*dim], cents[:dim])
			}
			checkNearest(t, "all equal", point, cents, k, dim)

			// Non-finite and signed-zero coordinates in the point and in
			// single centroids, at the head, middle and tail of the blocks.
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, math.MaxFloat64} {
				fresh()
				point[dim-1] = v
				checkNearest(t, "point special", point, cents, k, dim)
				for _, c := range []int{0, k / 2, k - 1} {
					fresh()
					cents[c*dim+dim/2] = v
					checkNearest(t, "centroid special", point, cents, k, dim)
					point[0] = v
					checkNearest(t, "both special", point, cents, k, dim)
				}
				for i := range cents {
					cents[i] = v
				}
				checkNearest(t, "all special", point, cents, k, dim)
			}
		}
	}
}

// fuzzValues decodes data into n float64 values. Mode 0 maps each byte to a
// small integer (ties, duplicate centroids) or to a special value (±Inf,
// NaN, ±0, ±MaxFloat64); mode 1 reads raw 8-byte IEEE bit patterns. Short
// data repeats; no data reads zeros.
func fuzzValues(mode uint8, data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		return out
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, 0.5}
	for i := range out {
		if mode%2 == 0 {
			b := data[i%len(data)]
			if b >= 248 {
				out[i] = specials[b-248]
			} else {
				out[i] = float64(int(b%8) - 4)
			}
			continue
		}
		var w [8]byte
		for j := range w {
			w[j] = data[(i*8+j)%len(data)]
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	return out
}

// FuzzNearest checks nearest against the one-centroid loop on arbitrary
// centroid counts, dims and values, NaN and infinities included.
func FuzzNearest(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(0), []byte{1, 2, 3, 2, 1, 250, 0, 7})
	f.Add(uint8(100), uint8(10), uint8(1), []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(8), uint8(1), uint8(0), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, kb, dimb, mode uint8, data []byte) {
		k, dim := 1+int(kb)%101, 1+int(dimb)%32
		vals := fuzzValues(mode, data, (k+1)*dim)
		point, cents := vals[:dim], vals[dim:]
		checkNearest(t, "fuzz", point, cents, k, dim)
	})
}

// TestNearestNoBoundsChecks asks the compiler's bounds-check report for
// nearest: neither distance loop (the four-centroid block and the
// one-centroid tail) may keep a bounds check in its body.
func TestNearestNoBoundsChecks(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "kmeans.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ from, to int }
	var inner []span
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "nearest" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if loop, ok := n.(*ast.ForStmt); ok {
				ast.Inspect(loop.Body, func(m ast.Node) bool {
					if r, ok := m.(*ast.RangeStmt); ok {
						inner = append(inner, span{fset.Position(r.Pos()).Line, fset.Position(r.End()).Line})
					}
					return true
				})
				return false
			}
			return true
		})
	}
	if len(inner) != 2 {
		t.Fatalf("found %d inner distance loops in nearest, want 2 (block and tail)", len(inner))
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-d=ssa/check_bce",
		"chapelfreeride/internal/apps").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce: %v\n%s", err, out)
	}
	found := regexp.MustCompile(`kmeans\.go:(\d+):\d+: Found (Is\w*InBounds)`)
	for _, m := range found.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		for _, s := range inner {
			if line >= s.from && line <= s.to {
				t.Errorf("kmeans.go:%d: %s inside nearest's distance loop (lines %d-%d)", line, m[2], s.from, s.to)
			}
		}
	}
}

// BenchmarkNearest times one nearest call at dim 10, the benchmark's
// k-means dimension, over a cycle of points.
func BenchmarkNearest(b *testing.B) {
	const dim = 10
	for _, k := range []int{10, 20, 100} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cents := make([]float64, k*dim)
			for i := range cents {
				cents[i] = rng.NormFloat64()
			}
			points := make([]float64, 1024*dim)
			for i := range points {
				points[i] = rng.NormFloat64()
			}
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := (i % 1024) * dim
				sink += nearest(points[p:p+dim], cents, k, dim)
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
