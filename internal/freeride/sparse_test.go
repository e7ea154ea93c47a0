package freeride

import (
	"context"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// sparseScatterSpec is a fused push reduction over a large object that each
// row touches exactly once — the access pattern of a sparse executor: cell
// row[0] accumulates row[1]. With groups ≫ split rows the dense worker-local
// mirror wastes an O(groups) sweep per split; the hashed accumulator is the
// intended mode.
func sparseScatterSpec(groups int) Spec {
	return Spec{
		Object:       ObjectSpec{Groups: groups, Elems: 1, Op: robj.OpAdd},
		ScatterBlock: true,
		BlockReduction: func(a *BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				a.Accumulate(int(row[0]), 0, row[1])
			}
			return nil
		},
	}
}

func scatterMatrix(rows, groups int, seed int64) *dataset.Matrix {
	m := dataset.NewMatrix(rows, 2)
	r := seed
	for i := 0; i < rows; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[2*i] = float64(uint64(r) >> 33 % uint64(groups))
		m.Data[2*i+1] = float64(int64(uint64(r)>>21%50) - 20)
	}
	return m
}

// TestSparseAccDecision pins the engine's dense-vs-hashed choice: the hashed
// accumulator engages only on fused jobs whose object crossed
// Config.SparseAccCells, 0 resolves to the 4096-cell default, and a negative
// threshold disables the mode no matter the object size.
func TestSparseAccDecision(t *testing.T) {
	obj, err := robj.Alloc(robj.FullReplication, robj.OpAdd, 5000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := robj.Alloc(robj.FullReplication, robj.OpAdd, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fused := Spec{ScatterBlock: true, BlockReduction: func(*BlockArgs) error { return nil }}
	dense := Spec{BlockReduction: func(*BlockArgs) error { return nil }}
	elem := Spec{Reduction: func(*ReductionArgs) error { return nil }}
	cases := []struct {
		name string
		cfg  Config
		spec Spec
		obj  *robj.Object
		want bool
	}{
		{"default threshold, large object", Config{}.withDefaults(), fused, obj, true},
		{"default threshold, small object", Config{}.withDefaults(), fused, small, false},
		{"explicit low threshold", Config{SparseAccCells: 4}.withDefaults(), fused, small, true},
		{"disabled", Config{SparseAccCells: -1}.withDefaults(), fused, obj, false},
		{"per-element spec never", Config{SparseAccCells: 1}.withDefaults(), elem, obj, false},
		{"dense fused kernel never (no ScatterBlock)", Config{SparseAccCells: 1}.withDefaults(), dense, obj, false},
	}
	for _, tc := range cases {
		if got := sparseAccFor(tc.cfg, tc.spec, tc.obj); got != tc.want {
			t.Errorf("%s: sparseAccFor = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPropertySparseAccMatchesDense: for every sharing strategy, the same
// fused spec run with the hashed accumulator (SparseAccCells forces it on),
// the dense mirror (forced off), and the per-element path all produce
// bit-identical objects — integer-valued data makes float addition exact.
func TestPropertySparseAccMatchesDense(t *testing.T) {
	const groups, rows = 3000, 2000
	m := scatterMatrix(rows, groups, 11)
	src := dataset.NewMemorySource(m)
	spec := sparseScatterSpec(groups)
	elemSpec := Spec{
		Object: spec.Object,
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				a.Accumulate(int(row[0]), 0, row[1])
			}
			return nil
		},
	}
	for _, strategy := range robj.Strategies() {
		base := Config{Threads: 4, SplitRows: 64, Scheduler: sched.Dynamic, Strategy: strategy}
		run := func(cfg Config, s Spec) []float64 {
			t.Helper()
			eng := New(cfg)
			defer eng.Close()
			res, err := eng.RunContext(context.Background(), s, src)
			if err != nil {
				t.Fatalf("%v: %v", strategy, err)
			}
			return res.Object.Snapshot()
		}
		hashedCfg := base
		hashedCfg.SparseAccCells = 1
		denseCfg := base
		denseCfg.SparseAccCells = -1

		flushesBefore := obs.Default.Value("freeride_scatter_flushes_total")
		hashed := run(hashedCfg, spec)
		if obs.Default.Value("freeride_scatter_flushes_total") == flushesBefore {
			t.Fatalf("%v: hashed run did not move freeride_scatter_flushes_total", strategy)
		}
		dense := run(denseCfg, spec)
		ref := run(denseCfg, elemSpec)
		for i := range ref {
			if hashed[i] != ref[i] || dense[i] != ref[i] {
				t.Fatalf("%v cell %d: hashed %v dense %v per-element %v",
					strategy, i, hashed[i], dense[i], ref[i])
			}
		}
	}
}

// TestSparseAccRepeatedTouches exercises aliased scatter targets (many rows
// landing in few cells) through the hashed mode, where first-touch insert
// and fold-on-rehit take different code paths, plus growth past the hash's
// initial capacity within one split.
func TestSparseAccRepeatedTouches(t *testing.T) {
	const groups = 5000
	rows := 600 // one split; > cellHashMinCap distinct cells force growth
	m := dataset.NewMatrix(rows, 2)
	for i := 0; i < rows; i++ {
		// Half the rows hammer cell 7; the rest spread out.
		if i%2 == 0 {
			m.Data[2*i] = 7
		} else {
			m.Data[2*i] = float64((i * 13) % groups)
		}
		m.Data[2*i+1] = float64(i%9 + 1)
	}
	src := dataset.NewMemorySource(m)
	spec := sparseScatterSpec(groups)

	want := make([]float64, groups)
	for i := 0; i < rows; i++ {
		want[int(m.Data[2*i])] += m.Data[2*i+1]
	}
	eng := New(Config{Threads: 1, SplitRows: rows, SparseAccCells: 1})
	defer eng.Close()
	res, err := eng.RunContext(context.Background(), spec, src)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Object.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCellHash unit-tests the open-addressed accumulator directly:
// first-touch order, fold on rehit, growth, and reuse after reset.
func TestCellHash(t *testing.T) {
	h := newCellHash()
	h.add(9, 2, robj.OpAdd)
	h.add(3, 5, robj.OpAdd)
	h.add(9, 4, robj.OpAdd) // rehit folds
	if len(h.cells) != 2 || h.cells[0] != 9 || h.cells[1] != 3 {
		t.Fatalf("cells = %v, want first-touch order [9 3]", h.cells)
	}
	if h.vals[0] != 6 || h.vals[1] != 5 {
		t.Fatalf("vals = %v, want [6 5]", h.vals)
	}

	h.reset()
	if len(h.cells) != 0 {
		t.Fatal("reset kept cells")
	}
	// Growth: insert far past the initial capacity, with stride-1 keys to
	// stress probe runs, then verify every accumulated value.
	const n = 10 * cellHashMinCap
	for i := 0; i < n; i++ {
		h.add(int32(i), float64(i), robj.OpAdd)
		h.add(int32(i), 1, robj.OpAdd)
	}
	if len(h.cells) != n {
		t.Fatalf("after growth: %d cells, want %d", len(h.cells), n)
	}
	seen := map[int32]float64{}
	for k, c := range h.cells {
		seen[c] = h.vals[k]
	}
	for i := 0; i < n; i++ {
		if seen[int32(i)] != float64(i)+1 {
			t.Fatalf("cell %d = %v, want %v", i, seen[int32(i)], float64(i)+1)
		}
	}

	// Min/max operators fold correctly on rehit too.
	h.reset()
	h.add(2, 8, robj.OpMin)
	h.add(2, 3, robj.OpMin)
	if h.vals[0] != 3 {
		t.Fatalf("OpMin fold = %v, want 3", h.vals[0])
	}
}
