package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"llmq/internal/vector"
)

func mustQuery(t *testing.T, center []float64, theta float64) Query {
	t.Helper()
	q, err := NewQuery(center, theta)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(nil, 0.5); err == nil {
		t.Error("empty centre accepted")
	}
	if _, err := NewQuery([]float64{1}, -0.5); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := NewQuery([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := NewQuery([]float64{1}, math.Inf(1)); err == nil {
		t.Error("infinite radius accepted")
	}
	q := mustQuery(t, []float64{1, 2}, 0.5)
	if q.Dim() != 2 || q.Theta != 0.5 {
		t.Errorf("query = %+v", q)
	}
}

func TestQueryVectorAndDistance(t *testing.T) {
	q := mustQuery(t, []float64{1, 2}, 0.5)
	o := mustQuery(t, []float64{1, 2}, 0.9)
	// Definition 5: sqrt(||x-x'||² + (θ-θ')²).
	if got := q.Distance(o); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Distance = %v, want 0.4", got)
	}
	o2 := mustQuery(t, []float64{4, 6}, 0.5)
	if got := q.Distance(o2); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
	// The distance is the L2 distance of the query-space vectors [x, θ]
	// (Definition 4), bit for bit the row kernel the model searches with.
	for _, p := range []Query{o, o2} {
		a, b := append(slices.Clone(q.Center), q.Theta), append(slices.Clone(p.Center), p.Theta)
		if got, want := q.Distance(p), vector.Distance(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Distance(%v, %v) = %v, query-space vector distance %v", q, p, got, want)
		}
	}
}

func TestOverlapDegree(t *testing.T) {
	a := mustQuery(t, []float64{0, 0}, 1)
	// Identical queries: degree 1.
	if got := a.OverlapDegree(a); got != 1 {
		t.Errorf("self-overlap = %v", got)
	}
	// Just touching: degree 0 (distance equals θ+θ').
	touch := mustQuery(t, []float64{2, 0}, 1)
	if got := a.OverlapDegree(touch); got != 0 {
		t.Errorf("touching overlap = %v", got)
	}
	// Disjoint: 0.
	far := mustQuery(t, []float64{5, 0}, 1)
	if got := a.OverlapDegree(far); got != 0 {
		t.Errorf("disjoint overlap = %v", got)
	}
	// Partial overlap lies strictly between 0 and 1.
	near := mustQuery(t, []float64{0.5, 0}, 1)
	if got := a.OverlapDegree(near); got <= 0 || got >= 1 {
		t.Errorf("partial overlap = %v", got)
	}
	// Concentric with different radii: degree reflects the radius gap.
	small := mustQuery(t, []float64{0, 0}, 0.25)
	got := a.OverlapDegree(small)
	want := 1 - 0.75/1.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("concentric overlap = %v, want %v", got, want)
	}
	// Symmetric.
	if math.Abs(a.OverlapDegree(near)-near.OverlapDegree(a)) > 1e-12 {
		t.Error("overlap degree must be symmetric")
	}
}

func TestOverlapDegreeZeroRadii(t *testing.T) {
	p := mustQuery(t, []float64{1, 1}, 0)
	q := mustQuery(t, []float64{1, 1}, 0)
	r := mustQuery(t, []float64{2, 1}, 0)
	if p.OverlapDegree(q) != 1 {
		t.Error("coincident zero-radius queries should have degree 1")
	}
	if p.OverlapDegree(r) != 0 {
		t.Error("distinct zero-radius queries should have degree 0")
	}
}

func TestContains(t *testing.T) {
	q := mustQuery(t, []float64{0, 0}, 1)
	if !q.Contains([]float64{0.5, 0.5}) {
		t.Error("interior point not contained")
	}
	if !q.Contains([]float64{1, 0}) {
		t.Error("boundary point not contained")
	}
	if q.Contains([]float64{1, 1}) {
		t.Error("exterior point contained")
	}
	if q.Contains([]float64{0.5}) {
		t.Error("wrong-dimension point contained")
	}
}

func TestQueryString(t *testing.T) {
	q := mustQuery(t, []float64{0.5, 0.25}, 0.1)
	if got, want := q.String(), "D(x=[0.5, 0.25], θ=0.1)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: overlap degree is always in [0,1] and symmetric.
func TestPropertyOverlapDegreeBoundedSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, ra, rb float64) bool {
		clamp := func(v, lim float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, lim)
		}
		a := Query{Center: []float64{clamp(ax, 10), clamp(ay, 10)}, Theta: math.Abs(clamp(ra, 5))}
		b := Query{Center: []float64{clamp(bx, 10), clamp(by, 10)}, Theta: math.Abs(clamp(rb, 5))}
		dab := a.OverlapDegree(b)
		dba := b.OverlapDegree(a)
		if dab < 0 || dab > 1 {
			return false
		}
		return math.Abs(dab-dba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
