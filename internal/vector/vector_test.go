package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormLpInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p < 1")
		}
	}()
	DistanceLp([]float64{1, 2}, []float64{0, 0}, 0.5)
}

func TestDistances(t *testing.T) {
	v := []float64{0, 0}
	w := []float64{3, 4}
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
		"SqDistance": func() { SqDistance([]float64{1}, []float64{1, 2}) },
		"DistanceLp": func() { DistanceLp([]float64{1}, []float64{1, 2}, 2) },
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

func TestStringAndParse(t *testing.T) {
	for _, c := range []struct {
		x    []float64
		want string
	}{
		{nil, "[]"},
		{[]float64{0.5, 0.5}, "[0.5, 0.5]"},
		{[]float64{0.5, -1.25, 3}, "[0.5, -1.25, 3]"},
		{[]float64{1.0 / 3, 1234567.0, 1e-7, math.Inf(-1), math.NaN()}, "[0.333333, 1.23457e+06, 1e-07, -Inf, NaN]"},
	} {
		if got := Format(c.x); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.x, got, c.want)
		}
	}
}

// Property-based tests. Raw quick-generated floats can be near MaxFloat64
// and overflow to +Inf in squared terms, so clamp each component to a sane
// range first.

func clamp(xs []float64) []float64 {
	v := make([]float64, len(xs))
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
		v, origin := clamp(a[:]), make([]float64, len(a))
		linf := DistanceLp(v, origin, math.Inf(1))
		l2 := DistanceLp(v, origin, 2)
		l1 := DistanceLp(v, origin, 1)
		return linf <= l2*(1+1e-12)+1e-9 && l2 <= l1*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSqDistance8(b *testing.B) {
	v, w := make([]float64, 8), make([]float64, 8)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(i) * 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SqDistance(v, w)
	}
}
