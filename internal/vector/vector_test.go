package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndDim(t *testing.T) {
	v := New(4)
	if v.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", v.Dim())
	}
	for i := 0; i < 4; i++ {
		if v.At(i) != 0 {
			t.Fatalf("component %d = %v, want 0", i, v.At(i))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(-1)
}

func TestOfAndClone(t *testing.T) {
	v := Of(1, 2, 3)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatalf("clone %v differs from original %v", c, v)
	}
	c.Set(0, 99)
	if v.At(0) == 99 {
		t.Fatal("Clone must not share backing storage")
	}
	var nilVec Vec
	if nilVec.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

func TestAddSub(t *testing.T) {
	v := Of(1, 2, 3)
	w := Of(4, 5, 6)
	sum := v.Add(w)
	diff := w.Sub(v)
	if !sum.Equal(Of(5, 7, 9)) {
		t.Errorf("Add = %v", sum)
	}
	if !diff.Equal(Of(3, 3, 3)) {
		t.Errorf("Sub = %v", diff)
	}
	// Originals untouched.
	if !v.Equal(Of(1, 2, 3)) || !w.Equal(Of(4, 5, 6)) {
		t.Error("Add/Sub must not mutate operands")
	}
}

func TestSubInto(t *testing.T) {
	v := Of(5, 5)
	w := Of(2, 3)
	dst := New(2)
	got := v.SubInto(dst, w)
	if !got.Equal(Of(3, 2)) {
		t.Errorf("SubInto = %v", got)
	}
	// Aliasing the destination with the receiver is allowed.
	v.SubInto(v, w)
	if !v.Equal(Of(3, 2)) {
		t.Errorf("aliased SubInto = %v", v)
	}
}

func TestAddScaledAndScale(t *testing.T) {
	v := Of(1, 1)
	v.AddScaled(0.5, Of(2, 4))
	if !v.Equal(Of(2, 3)) {
		t.Errorf("AddScaled = %v", v)
	}
	v.Scale(2)
	if !v.Equal(Of(4, 6)) {
		t.Errorf("Scale = %v", v)
	}
	s := v.Scaled(0.5)
	if !s.Equal(Of(2, 3)) || !v.Equal(Of(4, 6)) {
		t.Errorf("Scaled = %v (v=%v)", s, v)
	}
}

func TestDotAndNorms(t *testing.T) {
	v := Of(3, 4)
	if got := v.Dot(Of(1, 2)); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := v.SqNorm2(); got != 25 {
		t.Errorf("SqNorm2 = %v", got)
	}
	if got := v.NormLp(1); got != 7 {
		t.Errorf("L1 = %v", got)
	}
	if got := v.NormLp(math.Inf(1)); got != 4 {
		t.Errorf("Linf = %v", got)
	}
	if got := v.NormLp(2); got != 5 {
		t.Errorf("NormLp(2) = %v", got)
	}
	// General p: L3 norm of (3,4) = (27+64)^(1/3).
	want := math.Pow(91, 1.0/3.0)
	if got := v.NormLp(3); !almostEqual(got, want, 1e-12) {
		t.Errorf("L3 = %v, want %v", got, want)
	}
}

func TestNormLpInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p < 1")
		}
	}()
	Of(1, 2).NormLp(0.5)
}

func TestSumMeanMinMax(t *testing.T) {
	v := Of(2, -1, 4)
	if v.Sum() != 5 {
		t.Errorf("Sum = %v", v.Sum())
	}
	if !almostEqual(v.Mean(), 5.0/3.0, 1e-15) {
		t.Errorf("Mean = %v", v.Mean())
	}
	if v.Min() != -1 {
		t.Errorf("Min = %v", v.Min())
	}
	if v.Max() != 4 {
		t.Errorf("Max = %v", v.Max())
	}
	var empty Vec
	if empty.Mean() != 0 {
		t.Errorf("Mean of empty = %v", empty.Mean())
	}
}

func TestMinMaxEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Min": func() { Vec{}.Min() },
		"Max": func() { Vec{}.Max() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of empty vector should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIsFinite(t *testing.T) {
	if !Of(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if Of(1, math.NaN()).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if Of(math.Inf(-1)).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestAppend(t *testing.T) {
	x := Of(1, 2)
	q := x.Append(0.5)
	if !q.Equal(Of(1, 2, 0.5)) {
		t.Errorf("Append = %v", q)
	}
	if !x.Equal(Of(1, 2)) {
		t.Error("Append must not mutate the receiver")
	}
}

func TestDistances(t *testing.T) {
	v := Of(0, 0)
	w := Of(3, 4)
	if got := Distance(v, w); got != 5 {
		t.Errorf("Distance = %v", got)
	}
	if got := SqDistance(v, w); got != 25 {
		t.Errorf("SqDistance = %v", got)
	}
	if got := DistanceLp(v, w, 1); got != 7 {
		t.Errorf("L1 distance = %v", got)
	}
	if got := DistanceLp(v, w, math.Inf(1)); got != 4 {
		t.Errorf("Linf distance = %v", got)
	}
	if got := DistanceLp(v, w, 2); got != 5 {
		t.Errorf("DistanceLp(2) = %v", got)
	}
	want := math.Pow(27+64, 1.0/3.0)
	if got := DistanceLp(v, w, 3); !almostEqual(got, want, 1e-12) {
		t.Errorf("L3 distance = %v, want %v", got, want)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"Add":        func() { Of(1).Add(Of(1, 2)) },
		"Sub":        func() { Of(1).Sub(Of(1, 2)) },
		"Dot":        func() { Of(1).Dot(Of(1, 2)) },
		"AddScaled":  func() { Of(1).AddScaled(1, Of(1, 2)) },
		"Copy":       func() { Of(1).Copy(Of(1, 2)) },
		"SqDistance": func() { SqDistance(Of(1), Of(1, 2)) },
		"DistanceLp": func() { DistanceLp(Of(1), Of(1, 2), 2) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualAndApproxEqual(t *testing.T) {
	if Of(1, 2).Equal(Of(1, 2, 3)) {
		t.Error("vectors of different dims reported equal")
	}
	if !Of(1, 2).ApproxEqual(Of(1.0000001, 2), 1e-6) {
		t.Error("ApproxEqual too strict")
	}
	if Of(1, 2).ApproxEqual(Of(1.1, 2), 1e-6) {
		t.Error("ApproxEqual too lax")
	}
	if Of(1, 2).ApproxEqual(Of(1), 1) {
		t.Error("ApproxEqual must reject dim mismatch")
	}
}

func TestStringAndParse(t *testing.T) {
	v := Of(0.5, -1.25, 3)
	s := v.String()
	parsed, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if !parsed.ApproxEqual(v, 1e-12) {
		t.Errorf("round trip = %v, want %v", parsed, v)
	}
	for _, in := range []string{"1 2 3", "(1,2,3)", "[1, 2, 3]"} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !got.Equal(Of(1, 2, 3)) {
			t.Errorf("Parse(%q) = %v", in, got)
		}
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse of empty string should fail")
	}
	if _, err := Parse("1, two, 3"); err == nil {
		t.Error("Parse of non-numeric input should fail")
	}
}

// Property-based tests. Raw quick-generated floats can be near MaxFloat64
// and overflow to +Inf in squared terms, so clamp each component to a sane
// range first.

func clamp(xs []float64) Vec {
	v := make(Vec, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1e6)
	}
	return v
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		va, vb, vc := clamp(a[:]), clamp(b[:]), clamp(c[:])
		return Distance(va, vc) <= Distance(va, vb)+Distance(vb, vc)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistanceSymmetry(t *testing.T) {
	f := func(a, b [3]float64) bool {
		va, vb := clamp(a[:]), clamp(b[:])
		return almostEqual(Distance(va, vb), Distance(vb, va), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormOrdering(t *testing.T) {
	// For any vector, Linf <= L2 <= L1.
	f := func(a [5]float64) bool {
		v := clamp(a[:])
		linf := v.NormLp(math.Inf(1))
		l2 := v.Norm2()
		l1 := v.NormLp(1)
		return linf <= l2*(1+1e-12)+1e-9 && l2 <= l1*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDotCauchySchwarz(t *testing.T) {
	f := func(a, b [4]float64) bool {
		va, vb := clamp(a[:]), clamp(b[:])
		return math.Abs(va.Dot(vb)) <= va.Norm2()*vb.Norm2()*(1+1e-12)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAddScaledMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d := 1 + rng.Intn(6)
		v, w := New(d), New(d)
		for j := 0; j < d; j++ {
			v[j] = rng.NormFloat64()
			w[j] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		want := v.Add(w.Scaled(alpha))
		got := v.Clone()
		got.AddScaled(alpha, w)
		if !got.ApproxEqual(want, 1e-12) {
			t.Fatalf("AddScaled mismatch: got %v want %v", got, want)
		}
	}
}

func BenchmarkSqDistance8(b *testing.B) {
	v, w := New(8), New(8)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(i) * 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SqDistance(v, w)
	}
}

func BenchmarkAddScaled8(b *testing.B) {
	v, w := New(8), New(8)
	for i := range v {
		w[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.AddScaled(0.001, w)
	}
}
