package robj

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"chapelfreeride/internal/obs"
)

// rangeRun is one AccumulateRange call: a run of vals starting at (group,
// elem0).
type rangeRun struct {
	group, elem0 int
	vals         []float64
}

// randomRuns draws n runs inside a groups×elems object, with empty,
// length-1 and whole-group runs among them. exact draws multiples of 1/8
// so that sums do not depend on the order workers interleave in.
func randomRuns(rng *rand.Rand, n, groups, elems int, exact bool) []rangeRun {
	runs := make([]rangeRun, n)
	for i := range runs {
		g := rng.Intn(groups)
		var e0, l int
		switch rng.Intn(4) {
		case 0: // empty, anywhere up to one past the last element
			e0 = rng.Intn(elems + 1)
		case 1:
			e0, l = rng.Intn(elems), 1
		case 2:
			l = elems
		default:
			e0 = rng.Intn(elems)
			l = rng.Intn(elems-e0) + 1
		}
		vals := make([]float64, l)
		for k := range vals {
			if exact {
				vals[k] = float64(rng.Intn(64)-32) / 8
			} else {
				vals[k] = rng.NormFloat64()
			}
		}
		runs[i] = rangeRun{g, e0, vals}
	}
	return runs
}

// TestAccumulateRangeMatchesAccumulate pins AccumulateRange to one
// Accumulate per value: under every strategy, operator and 1–4 workers the
// merged object is bit-identical and robj_updates_total moves by the same
// count. Workers run one after another with arbitrary floats (so the
// per-worker fold order is what is compared) and concurrently with exact
// values (so the shared strategies' locks and CAS loops are exercised).
func TestAccumulateRangeMatchesAccumulate(t *testing.T) {
	const groups, elems, runsPerWorker = 5, 7, 200
	for _, st := range Strategies() {
		label := obs.Label{Key: "strategy", Value: st.String()}
		for _, op := range []Op{OpAdd, OpMin, OpMax} {
			for workers := 1; workers <= 4; workers++ {
				for _, concurrent := range []bool{false, true} {
					rng := rand.New(rand.NewSource(int64(workers)*31 + int64(op)))
					runs := make([][]rangeRun, workers)
					for w := range runs {
						runs[w] = randomRuns(rng, runsPerWorker, groups, elems, concurrent)
					}
					apply := func(perElement bool) ([]float64, int64) {
						o, err := Alloc(st, op, groups, elems, workers)
						if err != nil {
							t.Fatal(err)
						}
						do := func(w int) {
							for _, r := range runs[w] {
								if !perElement {
									o.AccumulateRange(w, r.group, r.elem0, r.vals)
									continue
								}
								for k, v := range r.vals {
									o.Accumulate(w, r.group, r.elem0+k, v)
								}
							}
						}
						if concurrent {
							var wg sync.WaitGroup
							for w := 0; w < workers; w++ {
								wg.Add(1)
								go func(w int) {
									defer wg.Done()
									do(w)
								}(w)
							}
							wg.Wait()
						} else {
							for w := 0; w < workers; w++ {
								do(w)
							}
						}
						before := obs.Default.Value("robj_updates_total", label)
						o.Merge()
						return o.Snapshot(), obs.Default.Value("robj_updates_total", label) - before
					}
					want, wantN := apply(true)
					got, gotN := apply(false)
					name := st.String() + "/" + op.String() + "/w=" + strconv.Itoa(workers) + "/concurrent=" + strconv.FormatBool(concurrent)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: cell %d = %v, per-element Accumulate gives %v", name, i, got[i], want[i])
						}
					}
					if gotN != wantN {
						t.Fatalf("%s: robj_updates_total moved %d, per-element Accumulate moves it %d", name, gotN, wantN)
					}
				}
			}
		}
	}
}

// TestAccumulateRangeNoBoundsChecks asks the compiler's bounds-check report
// for AccumulateRange: the replicated loop, the one the k-means, PCA and EM
// kernels run once per row, may keep no bounds check in its body.
func TestAccumulateRangeNoBoundsChecks(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "robj.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ from, to int }
	var loops []span
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "AccumulateRange" {
			continue
		}
		// The replicated loop is the one under `if o.strategy == FullReplication`.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cond, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			if eq, ok := cond.Cond.(*ast.BinaryExpr); !ok || fmt.Sprint(eq.Y) != "FullReplication" {
				return true
			}
			ast.Inspect(cond.Body, func(m ast.Node) bool {
				if r, ok := m.(*ast.RangeStmt); ok {
					loops = append(loops, span{fset.Position(r.Body.Pos()).Line, fset.Position(r.Body.End()).Line})
				}
				return true
			})
			return false
		})
	}
	if len(loops) != 1 {
		t.Fatalf("found %d replicated range loops in AccumulateRange, want 1", len(loops))
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-d=ssa/check_bce",
		"chapelfreeride/internal/robj").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce: %v\n%s", err, out)
	}
	found := regexp.MustCompile(`robj\.go:(\d+):\d+: Found (Is\w*InBounds)`)
	for _, m := range found.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		for _, l := range loops {
			if line >= l.from && line <= l.to {
				t.Errorf("robj.go:%d: %s inside AccumulateRange's replicated loop (lines %d-%d)", line, m[2], l.from, l.to)
			}
		}
	}
}

// BenchmarkAccumulateRange times one cell update through AccumulateRange
// (range) and through one Accumulate per cell (cell), at runs of 1, 11 (a
// k-means row at dim 10 plus its count) and 32 (a PCA covariance row) under
// every strategy, on one worker.
func BenchmarkAccumulateRange(b *testing.B) {
	const groups = 16
	for _, st := range Strategies() {
		for _, n := range []int{1, 11, 32} {
			vals := make([]float64, n)
			for k := range vals {
				vals[k] = float64(k)
			}
			o, err := Alloc(st, OpAdd, groups, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			name := st.String() + "/run=" + strconv.Itoa(n)
			b.Run(name+"/range", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o.AccumulateRange(0, i%groups, 0, vals)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
			})
			b.Run(name+"/cell", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := i % groups
					for k, v := range vals {
						o.Accumulate(0, g, k, v)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
			})
		}
	}
}
