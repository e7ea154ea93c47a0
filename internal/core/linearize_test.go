package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/chapel"
)

func TestLinearizePrimitives(t *testing.T) {
	b := Linearize(&chapel.Int{Val: -42})
	if len(b.Bytes) != 8 || b.ReadInt(0) != -42 {
		t.Fatal("int linearize")
	}
	b = Linearize(&chapel.Real{Val: 2.5})
	if b.ReadReal(0) != 2.5 {
		t.Fatal("real linearize")
	}
	b = Linearize(&chapel.Bool{Val: true})
	if len(b.Bytes) != 1 || !b.ReadBool(0) {
		t.Fatal("bool linearize")
	}
	b = Linearize(chapel.NewString(chapel.StringType(8), "hey"))
	if len(b.Bytes) != 8 || b.ReadString(0, 8) != "hey" {
		t.Fatalf("string linearize: %q", b.ReadString(0, 8))
	}
	b = Linearize(chapel.NewEnum(chapel.EnumType("e", "x", "y", "z"), 2))
	if b.ReadInt(0) != 2 {
		t.Fatal("enum linearize")
	}
}

func TestLinearizeWriteAccessors(t *testing.T) {
	b := Linearize(chapel.RealArray(1, 2, 3))
	b.WriteReal(8, 99.5)
	if b.ReadReal(8) != 99.5 {
		t.Fatal("WriteReal")
	}
	b2 := Linearize(chapel.IntArray(1, 2))
	b2.WriteInt(8, -7)
	if b2.ReadInt(8) != -7 {
		t.Fatal("WriteInt")
	}
}

func TestLinearizeFig6Layout(t *testing.T) {
	tt, n, m := 2, 3, 4
	data := fig6Data(tt, n, m)
	b := Linearize(data)
	if len(b.Bytes) != SizeOf(data.Ty) {
		t.Fatalf("buffer size %d, want %d", len(b.Bytes), SizeOf(data.Ty))
	}
	// Spot-check the layout directly: first real is data[1].b1[1].a1[1].
	if b.ReadReal(0) != 10101 {
		t.Fatalf("first real = %v", b.ReadReal(0))
	}
	// a2 of data[1].b1[1] sits right after the m reals.
	if b.ReadInt(m*8) != 1 {
		t.Fatalf("first a2 = %d", b.ReadInt(m*8))
	}
	// b2 of data[1] sits after n A-units.
	szA := m*8 + 8
	if b.ReadInt(n*szA) != 1 {
		t.Fatalf("first b2 = %d", b.ReadInt(n*szA))
	}
}

func TestDelinearizeRoundTrip(t *testing.T) {
	vals := []chapel.Value{
		&chapel.Int{Val: 7},
		&chapel.Real{Val: -1.25},
		&chapel.Bool{Val: true},
		chapel.NewString(chapel.StringType(10), "roundtrip"),
		chapel.NewEnum(chapel.EnumType("e", "a", "b"), 1),
		fig6Data(3, 2, 4),
		chapel.RealArray(1, 2, 3),
		chapel.IntArray(-1, 0, 1),
	}
	for _, v := range vals {
		got, err := Delinearize(Linearize(v))
		if err != nil {
			t.Fatalf("%s: %v", v.Type(), err)
		}
		if !chapel.DeepEqual(v, got) {
			t.Fatalf("%s: round trip mismatch", v.Type())
		}
	}
}

func TestDelinearizeSizeMismatch(t *testing.T) {
	b := Linearize(chapel.RealArray(1, 2, 3))
	b.Ty = chapel.ArrayType(chapel.RealType(), 1, 4) // lie about the type
	if _, err := Delinearize(b); err == nil {
		t.Fatal("size mismatch: want error")
	}
}

func TestDelinearizeClampsBadEnumOrdinal(t *testing.T) {
	ty := chapel.EnumType("e", "a", "b")
	b := Linearize(chapel.NewEnum(ty, 1))
	b.WriteInt(0, 99) // corrupt ordinal
	v, err := Delinearize(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*chapel.Enum).Ordinal != 0 {
		t.Fatal("corrupt ordinal should clamp to 0")
	}
}

func TestLinearizeExpr(t *testing.T) {
	// The paper's `min reduce A+B` data path: linearize the iterative
	// expression elementwise.
	a := chapel.RealArray(5, 2, 8)
	bb := chapel.RealArray(1, 9, -4)
	buf := LinearizeExpr(chapel.Zip(chapel.OpPlus, chapel.Over(a), chapel.Over(bb)))
	want := []float64{6, 11, 4}
	for i, w := range want {
		if got := buf.ReadReal(i * 8); got != w {
			t.Fatalf("elem %d = %v, want %v", i, got, w)
		}
	}
	if buf.Ty.Kind != chapel.KindArray || buf.Ty.Len() != 3 {
		t.Fatalf("expr buffer type = %s", buf.Ty)
	}
	// Int expression.
	ib := LinearizeExpr(chapel.RangeExpr{Lo: 4, Hi: 6})
	if ib.ReadInt(0) != 4 || ib.ReadInt(16) != 6 {
		t.Fatal("int expr linearize")
	}
}

// TestLinearizeParallelMatchesSequential: the word path on any number of
// workers equals Algorithm 2's sequential byte path, word for word.
func TestLinearizeParallelMatchesSequential(t *testing.T) {
	data := makePoints(17, 3, 5)
	seq, err := Linearize(data).Float64s()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 8, 32} {
		par, err := LinearizeToWordsParallel(data, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d words, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: word %d differs", workers, i)
			}
		}
	}
}

func TestFloat64sView(t *testing.T) {
	pt := chapel.RecordType("pt", chapel.Field{Name: "c", Type: chapel.ArrayType(chapel.RealType(), 1, 2)})
	data := chapel.NewArray(chapel.ArrayType(pt, 1, 3))
	for i := 1; i <= 3; i++ {
		r := data.At(i).(*chapel.Record)
		r.Field("c").(*chapel.Array).SetAt(1, &chapel.Real{Val: float64(i)})
		r.Field("c").(*chapel.Array).SetAt(2, &chapel.Real{Val: float64(i) + 0.5})
	}
	buf := Linearize(data)
	words, err := buf.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 2.5, 3, 3.5}
	for i, w := range want {
		if words[i] != w {
			t.Fatalf("words = %v", words)
		}
	}
	// Non-all-real layout refuses the view.
	mixed := Linearize(fig6Data(1, 1, 1))
	if _, err := mixed.Float64s(); err == nil {
		t.Fatal("mixed layout: want error")
	}
}

func TestLinearizeToWords(t *testing.T) {
	data := chapel.RealArray(3, 1, 4, 1, 5)
	words, err := LinearizeToWords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 5 || words[2] != 4 {
		t.Fatalf("words = %v", words)
	}
	if _, err := LinearizeToWords(chapel.IntArray(1)); err == nil {
		t.Fatal("int data: want error")
	}
	// Direct word path agrees with the byte path.
	pt := chapel.RecordType("pt", chapel.Field{Name: "c", Type: chapel.ArrayType(chapel.RealType(), 1, 3)})
	nested := chapel.NewArray(chapel.ArrayType(pt, 1, 4))
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 4; i++ {
		arr := nested.At(i).(*chapel.Record).Field("c").(*chapel.Array)
		for j := 1; j <= 3; j++ {
			arr.SetAt(j, &chapel.Real{Val: rng.NormFloat64()})
		}
	}
	viaBytes, err := Linearize(nested).Float64s()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := LinearizeToWords(nested)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaBytes {
		if viaBytes[i] != direct[i] {
			t.Fatalf("word %d: %v vs %v", i, viaBytes[i], direct[i])
		}
	}
}

func TestLinearizeToWordsParallel(t *testing.T) {
	data := chapel.RealArray(make([]float64, 1000)...)
	for i := 1; i <= 1000; i++ {
		data.SetAt(i, &chapel.Real{Val: float64(i)})
	}
	seq, err := LinearizeToWords(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		par, err := LinearizeToWordsParallel(data, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: word %d differs", workers, i)
			}
		}
	}
	if _, err := LinearizeToWordsParallel(chapel.IntArray(1), 2); err == nil {
		t.Fatal("int data: want error")
	}
}

func TestWordsBack(t *testing.T) {
	pt := chapel.RecordType("pt", chapel.Field{Name: "c", Type: chapel.ArrayType(chapel.RealType(), 1, 2)})
	v := chapel.NewArray(chapel.ArrayType(pt, 1, 2))
	words := []float64{1, 2, 3, 4}
	if err := WordsBack(words, v); err != nil {
		t.Fatal(err)
	}
	got := v.At(2).(*chapel.Record).Field("c").(*chapel.Array).At(2).(*chapel.Real).Val
	if got != 4 {
		t.Fatalf("write-back = %v", got)
	}
	if err := WordsBack([]float64{1}, v); err == nil {
		t.Fatal("short words: want error")
	}
	if err := WordsBack(words, chapel.IntArray(1, 2, 3, 4)); err == nil {
		t.Fatal("int value: want error")
	}
}

func TestStringPaddingAndSpecialFloats(t *testing.T) {
	st := chapel.StringType(6)
	b := Linearize(chapel.NewString(st, "ab"))
	if b.ReadString(0, 6) != "ab" {
		t.Fatal("padded string read")
	}
	nan := Linearize(&chapel.Real{Val: math.NaN()})
	if !math.IsNaN(nan.ReadReal(0)) {
		t.Fatal("NaN round trip")
	}
	inf := Linearize(&chapel.Real{Val: math.Inf(-1)})
	if !math.IsInf(inf.ReadReal(0), -1) {
		t.Fatal("-Inf round trip")
	}
}

// Property: Linearize → Delinearize is the identity on random fig6 data.
func TestPropertyLinearizeRoundTrip(t *testing.T) {
	f := func(seed int64, tRaw, nRaw, mRaw uint8) bool {
		tt := int(tRaw%3) + 1
		n := int(nRaw%3) + 1
		m := int(mRaw%3) + 1
		rng := rand.New(rand.NewSource(seed))
		data := chapel.NewArray(fig6Type(tt, n, m))
		for i := 1; i <= tt; i++ {
			b := data.At(i).(*chapel.Record)
			b.SetField("b2", &chapel.Int{Val: rng.Int63()})
			for j := 1; j <= n; j++ {
				a := b.Field("b1").(*chapel.Array).At(j).(*chapel.Record)
				a.SetField("a2", &chapel.Int{Val: rng.Int63()})
				for k := 1; k <= m; k++ {
					a.Field("a1").(*chapel.Array).SetAt(k, &chapel.Real{Val: rng.NormFloat64()})
				}
			}
		}
		got, err := Delinearize(Linearize(data))
		return err == nil && chapel.DeepEqual(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
