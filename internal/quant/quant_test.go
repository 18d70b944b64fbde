// Package quant holds the contract tests of the conditionally growing
// Adaptive Vector Quantization (AVQ) of Section IV of the paper: prototypes
// over the query space move toward incoming queries by stochastic gradient
// descent, and a query farther than the vigilance ρ = a(√d + 1) from every
// prototype spawns a new one. The AVQ itself is implemented once, in
// internal/core; these tests drive core.Model through its public API and
// check the quantizer's behaviour alone, with the query radius θ held at 0
// so the query space is the input space.
package quant

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/core"
)

// newModel builds a model with an explicit vigilance, the hyperbolic
// learning rate η_t = 1/(t+1) over each prototype's win count (byPrototype)
// or over the global step count, and a termination threshold small enough
// that training never freezes the prototypes.
func newModel(t *testing.T, dim int, vigilance float64, byPrototype bool) *core.Model {
	t.Helper()
	m, err := core.NewModel(core.Config{Dim: dim, Vigilance: vigilance, Gamma: 1e-300, RateByPrototype: byPrototype})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func query(t *testing.T, center ...float64) core.Query {
	t.Helper()
	q, err := core.NewQuery(center, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func observe(t *testing.T, m *core.Model, q core.Query) core.StepInfo {
	t.Helper()
	info, err := m.Observe(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// winner returns the slot and the query-space distance of the prototype
// nearest q, read through the served View: a distance of 0 means a prototype
// sits exactly at q.
func winner(t *testing.T, m *core.Model, q core.Query) (int, float64) {
	t.Helper()
	k, d, err := m.View().Winner(q)
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func vigilance(t *testing.T, a float64, d int) float64 {
	t.Helper()
	m, err := core.NewModel(core.Config{Dim: d, ResolutionA: a, Gamma: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return m.Config().Vigilance
}

func TestVigilance(t *testing.T) {
	if got := vigilance(t, 0.25, 4); math.Abs(got-0.25*3) > 1e-12 {
		t.Errorf("vigilance(0.25, 4) = %v", got)
	}
	if got := vigilance(t, 1, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("vigilance(1, 1) = %v", got)
	}
	// Higher a gives a larger threshold (coarser quantization).
	if vigilance(t, 0.1, 3) >= vigilance(t, 0.5, 3) {
		t.Error("vigilance must grow with a")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []core.Config{
		{Dim: 0, Vigilance: 1, Gamma: 0.01},
		{Dim: 2, Vigilance: 0, Gamma: 0.01},
		{Dim: 2, Vigilance: math.NaN(), Gamma: 0.01},
		{Dim: 2, Vigilance: math.Inf(1), Gamma: 0.01},
		{Dim: 2, ResolutionA: math.NaN(), Gamma: 0.01},
	}
	for i, cfg := range bad {
		if _, err := core.NewModel(cfg); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadConfig", i, cfg, err)
		}
	}
	m := newModel(t, 3, 0.5, false)
	if cfg := m.Config(); cfg.Dim != 3 || cfg.Vigilance != 0.5 || m.K() != 0 {
		t.Errorf("fresh model: dim=%d ρ=%v K=%d", cfg.Dim, cfg.Vigilance, m.K())
	}
}

func TestFirstObservationCreatesPrototype(t *testing.T) {
	m := newModel(t, 2, 0.5, true)
	info := observe(t, m, query(t, 0.1, 0.2))
	if !info.Created || info.Winner != 0 || m.K() != 1 {
		t.Errorf("info = %+v, K = %d", info, m.K())
	}
	if k, d := winner(t, m, query(t, 0.1, 0.2)); k != 0 || d != 0 {
		t.Errorf("nearest prototype to the observed query: slot %d at %v, want slot 0 at 0", k, d)
	}
}

func TestObserveWithinVigilanceMovesWinner(t *testing.T) {
	m := newModel(t, 1, 1.0, true)
	observe(t, m, query(t, 0.0))
	q := query(t, 0.4)
	if _, dist := winner(t, m, q); math.Abs(dist-0.4) > 1e-12 {
		t.Errorf("distance = %v", dist)
	}
	info := observe(t, m, q)
	if info.Created {
		t.Fatal("observation within vigilance must not create a prototype")
	}
	// The spawn counted one win, so η = 1/(1+1): w moved from 0 toward 0.4
	// by half, to 0.2.
	if _, d := winner(t, m, query(t, 0.2)); d > 1e-12 {
		t.Errorf("prototype after update is %v from 0.2", d)
	}
	if math.Abs(info.GammaJ-0.2) > 1e-12 {
		t.Errorf("drift = %v", info.GammaJ)
	}
}

func TestObserveBeyondVigilanceCreatesPrototype(t *testing.T) {
	m := newModel(t, 1, 0.5, true)
	observe(t, m, query(t, 0.0))
	info := observe(t, m, query(t, 2.0))
	if !info.Created || m.K() != 2 {
		t.Errorf("info = %+v, K = %d", info, m.K())
	}
	// The original prototype must be untouched.
	if k, d := winner(t, m, query(t, 0.0)); k != 0 || d != 0 {
		t.Errorf("non-winner moved: nearest to 0 is slot %d at %v", k, d)
	}
	// A growth step changes K, so it reports Γ^J = +Inf: the termination
	// criterion cannot fire while the prototype set is still growing.
	if !math.IsInf(info.GammaJ, 1) {
		t.Errorf("creation should report Γ^J = +Inf, got %v", info.GammaJ)
	}
}

func TestObserveValidation(t *testing.T) {
	m := newModel(t, 2, 0.5, false)
	if _, err := m.Observe(query(t, 1), 0.5); !errors.Is(err, core.ErrDimension) {
		t.Errorf("dim err = %v", err)
	}
	if _, err := core.NewQuery([]float64{1, 2}, -0.1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := core.NewQuery([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := core.NewQuery(nil, 0); !errors.Is(err, core.ErrDimension) {
		t.Errorf("empty centre err = %v", err)
	}
	if m.K() != 0 {
		t.Errorf("rejected observations changed the model: K = %d", m.K())
	}
}

func TestWinner(t *testing.T) {
	m := newModel(t, 2, 1, true)
	if _, _, err := m.View().Winner(query(t, 0, 0)); !errors.Is(err, core.ErrNotTrained) {
		t.Errorf("empty winner err = %v", err)
	}
	observe(t, m, query(t, 0, 0))
	if _, _, err := m.View().Winner(query(t, 0)); !errors.Is(err, core.ErrDimension) {
		t.Errorf("dim err = %v", err)
	}
	observe(t, m, query(t, 5, 5))
	if k, d := winner(t, m, query(t, 4.5, 5)); k != 1 || math.Abs(d-0.5) > 1e-12 {
		t.Errorf("winner = %d at %v", k, d)
	}
}

// uniformSquare draws n queries with centres uniform on [0,1]² and θ = 0.
func uniformSquare(t *testing.T, seed int64, n int) []core.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = query(t, rng.Float64(), rng.Float64())
	}
	return qs
}

func TestVigilanceControlsPrototypeCount(t *testing.T) {
	sample := uniformSquare(t, 7, 2000)
	countFor := func(vig float64) int {
		m := newModel(t, 2, vig, false)
		for _, q := range sample {
			observe(t, m, q)
		}
		return m.K()
	}
	coarse := countFor(1.5) // larger than the diameter of [0,1]² → one prototype
	medium := countFor(0.4)
	fine := countFor(0.1)
	if coarse != 1 {
		t.Errorf("coarse quantization K = %d, want 1", coarse)
	}
	if !(fine > medium && medium >= coarse) {
		t.Errorf("prototype counts not monotone in resolution: fine=%d medium=%d coarse=%d", fine, medium, coarse)
	}
}

func TestPrototypesReturnsCopies(t *testing.T) {
	m := newModel(t, 2, 0.5, true)
	observe(t, m, query(t, 1, 2))
	q := query(t, 1, 2)
	models, err := m.View().Regression(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || !slices.Equal(models[0].Center, q.Center) || models[0].Theta != 0 {
		t.Fatalf("Regression at the prototype = %+v, want its centre %v", models, q.Center)
	}
	models[0].Center[0] = 99
	if k, d := winner(t, m, q); k != 0 || d != 0 {
		t.Errorf("editing the answer moved the prototype: nearest to %v is slot %d at %v", q.Center, k, d)
	}
}

func TestDriftShrinksWithLearningRateSchedule(t *testing.T) {
	// With the hyperbolic schedule η_t = 1/(t+1) over the global step count
	// and a stationary input distribution, the per-step prototype drift Γ^J
	// must eventually become small (convergence of Γ^J).
	m := newModel(t, 2, 0.6, false)
	var max float64
	for step, q := range uniformSquare(t, 3, 5000) {
		info := observe(t, m, q)
		if info.Converged {
			t.Fatal("the model froze; the drift would read zero")
		}
		if step >= 4900 && !info.Created && info.GammaJ > max {
			max = info.GammaJ
		}
	}
	if max > 0.01 {
		t.Errorf("late-stage drift too large: %v", max)
	}
}
