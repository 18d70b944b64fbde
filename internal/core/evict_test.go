package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// driftStream is the non-stationary workload of the streaming-training
// tests: query centres are drawn from a window that slides along the
// diagonal of the unit cube (ping-pong, so long streams keep moving), the
// concept-drift regime bounded-capacity training exists for. Deterministic
// for a seed.
type driftStream struct {
	rng      *rand.Rand
	dim      int
	t        int
	window   float64 // window edge length
	velocity float64 // window displacement per query
}

func newDriftStream(dim int, window, velocity float64, seed int64) *driftStream {
	return &driftStream{rng: rand.New(rand.NewSource(seed)), dim: dim, window: window, velocity: velocity}
}

// pingpong folds v into [0, 1] by reflection.
func pingpong(v float64) float64 {
	v = math.Mod(v, 2)
	if v < 0 {
		v += 2
	}
	if v > 1 {
		v = 2 - v
	}
	return v
}

func (g *driftStream) next() Query {
	pos := pingpong(g.velocity * float64(g.t))
	g.t++
	x := make([]float64, g.dim)
	for j := range x {
		x[j] = pos*(1-g.window) + g.window*g.rng.Float64()
	}
	return Query{Center: x, Theta: 0.03 + 0.04*g.rng.Float64()}
}

// answer is a smooth deterministic data function so RLS states evolve
// non-trivially.
func (g *driftStream) pair() (Query, float64) {
	q := g.next()
	var s float64
	for _, v := range q.Center {
		s += v
	}
	return q, math.Sin(3*s) + 0.5*q.Theta
}

// compactReference rebuilds the model from scratch out of its prototypes: a
// fresh unbounded model whose store holds exactly the surviving LLMs in slot
// order, inserted one by one with its own epoch rebuilds. It is the
// reference the eviction pass must be bit-identical to.
func compactReference(tb testing.TB, m *Model) *Model {
	tb.Helper()
	cfg := m.cfg
	cfg.MaxPrototypes = 0
	cfg.Eviction = Eviction{}
	ref, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m.mu.Lock()
	for k := 0; k < m.store.k; k++ {
		ref.store.insert(m.store.at(k).clone())
		ref.store.maybeRebuildEpoch()
	}
	ref.steps = m.steps
	m.mu.Unlock()
	ref.publishLocked()
	return ref
}

// probeQueries spans the whole drift path, including regions whose
// prototypes have been evicted (the extrapolation paths).
func probeQueries(dim, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		out[i] = Query{Center: x, Theta: 0.02 + 0.2*rng.Float64()}
	}
	return out
}

// assertViewsAgree requires bit-identical answers from every prediction
// method across the probe set. Winner indices may differ (the capped store
// numbers by slot, the reference compactly), so winners are compared by
// distance, bit for bit.
func assertViewsAgree(t *testing.T, tag string, got, want View, probes []Query) {
	t.Helper()
	for i, q := range probes {
		gm, err1 := got.PredictMean(q)
		wm, err2 := want.PredictMean(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s probe %d: PredictMean errs %v / %v", tag, i, err1, err2)
		}
		if gm != wm {
			t.Fatalf("%s probe %d: PredictMean %v (capped) != %v (reference)", tag, i, gm, wm)
		}
		x := append([]float64(nil), q.Center...)
		gv, err1 := got.PredictValue(q, x)
		wv, err2 := want.PredictValue(q, x)
		if err1 != nil || err2 != nil || gv != wv {
			t.Fatalf("%s probe %d: PredictValue %v/%v (errs %v/%v)", tag, i, gv, wv, err1, err2)
		}
		gr, err1 := got.Regression(q)
		wr, err2 := want.Regression(q)
		if err1 != nil || err2 != nil || len(gr) != len(wr) {
			t.Fatalf("%s probe %d: Regression lens %d/%d (errs %v/%v)", tag, i, len(gr), len(wr), err1, err2)
		}
		for j := range gr {
			if gr[j].Intercept != wr[j].Intercept || gr[j].Theta != wr[j].Theta ||
				gr[j].Weight != wr[j].Weight || !slices.Equal(gr[j].Slope, wr[j].Slope) ||
				!slices.Equal(gr[j].Center, wr[j].Center) {
				t.Fatalf("%s probe %d: Regression model %d diverged: %+v vs %+v", tag, i, j, gr[j], wr[j])
			}
		}
		// Rebuild timing differs between the capped model and the rebuilt
		// reference, so the winner is found on different paths (tail, tree
		// or grid); every path sums a row's distance in one
		// order, so the distance is the same bits on each.
		_, gd, err1 := got.Winner(q)
		_, wd, err2 := want.Winner(q)
		if err1 != nil || err2 != nil || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s probe %d: winner distance %v/%v (errs %v/%v)", tag, i, gd, wd, err1, err2)
		}
	}
}

// TestCappedStoreMatchesCompactedReference is the streaming-training
// exactness property: a bounded model trained on a drifting stream — with
// eviction passes, merges and the epochs they build in play — must answer
// every prediction bit-identically to a model rebuilt from scratch out of
// its surviving prototypes. After every step the writer holds exactly K
// slots, and a spawn reports the last of them. Covers the grid
// (d=2) and k-d tree (d=5) epoch paths, both eviction policies, and both
// hard eviction and merge.
func TestCappedStoreMatchesCompactedReference(t *testing.T) {
	cases := []struct {
		name   string
		dim    int
		vig    float64
		max    int
		policy Eviction
		merge  bool
	}{
		{"d2-windecay", 2, 0.03, 200, Eviction{}, false},
		{"d2-recency-merge", 2, 0.03, 200, Eviction{Recency: true}, true},
		{"d5-windecay-merge", 5, 0.07, 200, Eviction{}, true},
		{"d5-recency", 5, 0.07, 200, Eviction{Recency: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.dim)
			cfg.Vigilance = tc.vig
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			cfg.MaxPrototypes = tc.max
			cfg.Eviction = tc.policy
			cfg.MergeOnEvict = tc.merge
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream := newDriftStream(tc.dim, 0.2, 3e-4, int64(1000+tc.dim))
			probes := probeQueries(tc.dim, 120, int64(2000+tc.dim))
			evicted, spawned := 0, 0
			for step := 0; step < 4000; step++ {
				q, y := stream.pair()
				info, err := m.Observe(q, y)
				if err != nil {
					t.Fatal(err)
				}
				evicted += info.Evicted
				if info.Created {
					spawned++
				}
				if info.K > tc.max {
					t.Fatalf("step %d: live K=%d exceeds cap %d", step, info.K, tc.max)
				}
				if slots := len(writerSlots(m)); slots != info.K || m.K() != info.K {
					t.Fatalf("step %d: %d slots, K=%d, View K=%d: the slot space is not exactly the prototypes", step, slots, info.K, m.K())
				}
				if info.Created && info.Winner != info.K-1 {
					t.Fatalf("step %d: the spawn reported slot %d of %d, want the last", step, info.Winner, info.K)
				}
				if step == 1500 || step == 3999 {
					assertViewsAgree(t, tc.name, m.View(), compactReference(t, m).View(), probes)
				}
			}
			if evicted == 0 {
				t.Fatalf("drifting stream caused no evictions (K=%d, spawned=%d) — the test exercised nothing", m.K(), spawned)
			}
			if k := m.K(); k > tc.max {
				t.Fatalf("K=%d exceeds cap %d", k, tc.max)
			}
			if m.snap.Load().epoch == nil {
				t.Fatalf("no read epoch active at K=%d — the indexed paths were not exercised", m.K())
			}
			// Stream until spawns are pending between epoch rebuilds (stored
			// but not indexed), then re-verify exactness in that state.
			tailPending := false
			for i := 0; i < 6000 && !tailPending; i++ {
				q, y := stream.pair()
				if _, err := m.Observe(q, y); err != nil {
					t.Fatal(err)
				}
				s := m.snap.Load()
				tailPending = s.epoch != nil && s.k > s.epoch.builtK
			}
			if !tailPending {
				t.Fatal("never caught an appended tail pending between rebuilds")
			}
			assertViewsAgree(t, tc.name+"-tail", m.View(), compactReference(t, m).View(), probes)
			// No negative radius may ever surface through the public API.
			v := m.View()
			for _, q := range probes {
				qs, _, err := v.Neighborhood(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, pq := range qs {
					if pq.Theta < 0 {
						t.Fatalf("negative radius in Neighborhood: %+v", pq)
					}
				}
			}
		})
	}
}

// TestPinnedViewSurvivesEvictionBursts is the pinned-View safety property:
// a View pinned before an eviction burst keeps answering from its own
// version — same predictions bit for bit, same K, no negative radius —
// while the writer evicts, merges and rebuilds its store and epochs
// underneath it. Run with -race (CI does) alongside the interleaved-ops
// tests.
func TestPinnedViewSurvivesEvictionBursts(t *testing.T) {
	const dim = 2
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	cfg.MaxPrototypes = 150
	cfg.Eviction = Eviction{Recency: true}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := newDriftStream(dim, 0.2, 5e-4, 7)
	for i := 0; i < 1500; i++ {
		q, y := stream.pair()
		if _, err := m.Observe(q, y); err != nil {
			t.Fatal(err)
		}
	}

	v := m.View()
	baseK := v.K()
	probes := probeQueries(dim, 150, 77)
	want := make([]float64, len(probes))
	for i, q := range probes {
		if want[i], err = v.PredictMean(q); err != nil {
			t.Fatal(err)
		}
	}

	// Writer: a further drift leg that forces spawn/evict churn, plus a
	// capacity shrink — the harshest version change a pinned reader can sit
	// across. Readers: hammer the pinned view concurrently.
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(len(probes))
				got, err := v.PredictMean(probes[i])
				if err != nil {
					t.Errorf("pinned PredictMean: %v", err)
					return
				}
				if got != want[i] {
					t.Errorf("pinned view drifted: probe %d got %v want %v", i, got, want[i])
					return
				}
				if k := v.K(); k != baseK {
					t.Errorf("pinned view K changed: %d -> %d", baseK, k)
					return
				}
				qs, _, err := v.Neighborhood(probes[i])
				if err != nil {
					t.Errorf("pinned Neighborhood: %v", err)
					return
				}
				for _, pq := range qs {
					if pq.Theta < 0 {
						t.Errorf("negative radius in pinned Neighborhood: %+v", pq)
						return
					}
				}
			}
		}(int64(300 + r))
	}
	evicted := 0
	for i := 0; i < 3000; i++ {
		q, y := stream.pair()
		info, err := m.Observe(q, y)
		if err != nil {
			t.Fatal(err)
		}
		evicted += info.Evicted
		if i == 1500 {
			if err := m.SetCapacity(60, Eviction{}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if evicted == 0 {
		t.Fatal("no evictions during the burst — the test exercised nothing")
	}
	if k := m.K(); k > 60 {
		t.Fatalf("live model K=%d exceeds the shrunk cap", k)
	}
	if k := v.K(); k != baseK {
		t.Fatalf("pinned view K changed after the bursts: %d -> %d", baseK, k)
	}
	// And the pinned version still answers identically after everything.
	for i, q := range probes {
		got, err := v.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("pinned view drifted after bursts: probe %d got %v want %v", i, got, want[i])
		}
	}
}

// TestSetCapacityShrink covers runtime re-capping: shrinking an unbounded
// trained model evicts down to the cap immediately, publishes, and the
// shrunken model still matches its compacted reference exactly.
func TestSetCapacityShrink(t *testing.T) {
	const dim = 2
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2500; i++ {
		if _, err := m.Observe(randQuery(rng, dim), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	before := m.K()
	if before <= 100 {
		t.Fatalf("fixture too small: K=%d", before)
	}
	if err := m.SetCapacity(-1, m.Config().Eviction, false); err == nil {
		t.Fatal("negative capacity should fail")
	}
	if err := m.SetCapacity(100, Eviction{}, false); err != nil {
		t.Fatal(err)
	}
	if k := m.K(); k > 100 {
		t.Fatalf("SetCapacity(100) left K=%d", k)
	}
	probes := probeQueries(dim, 120, 11)
	assertViewsAgree(t, "shrunk", m.View(), compactReference(t, m).View(), probes)
	// Removing the cap lets K grow again.
	if err := m.SetCapacity(0, m.Config().Eviction, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := m.Observe(randQuery(rng, dim), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if m.K() <= 100 {
		t.Fatalf("uncapped model did not grow: K=%d", m.K())
	}
}

// TestCappedSaveLoadRoundTrip: Save writes the prototypes in slot order; the loaded
// model serves identical predictions and keeps the capacity configuration.
func TestCappedSaveLoadRoundTrip(t *testing.T) {
	const dim = 2
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	cfg.MaxPrototypes = 120
	cfg.Eviction = Eviction{HalfLife: 500}
	cfg.MergeOnEvict = true
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := newDriftStream(dim, 0.2, 5e-4, 21)
	for i := 0; i < 2500; i++ {
		q, y := stream.pair()
		if _, err := m.Observe(q, y); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != m.K() {
		t.Fatalf("loaded K=%d, want %d", loaded.K(), m.K())
	}
	lc := loaded.Config()
	if lc.MaxPrototypes != 120 || !lc.MergeOnEvict {
		t.Fatalf("capacity config lost in round trip: %+v", lc)
	}
	if lc.Eviction != (Eviction{HalfLife: 500}) {
		t.Fatalf("eviction policy lost in round trip: %#v", lc.Eviction)
	}
	for _, q := range probeQueries(dim, 150, 31) {
		a, err := m.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("prediction diverged after reload: %v vs %v", a, b)
		}
	}
}

// TestLoadEnforcesCapacity: a model file carrying more prototypes than its
// cap (a checkpoint racing a SetCapacity shrink, or a hand-edited file)
// must load at or under the cap — a pure-serving process never spawns, so
// Load is its only chance to enforce the budget.
func TestLoadEnforcesCapacity(t *testing.T) {
	const dim = 2
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		if _, err := m.Observe(randQuery(rng, dim), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if m.K() <= 50 {
		t.Fatalf("fixture too small: K=%d", m.K())
	}
	// Forge the over-cap file: an unbounded model file with a cap patched
	// into header field 8 and a policy name after the fields, exactly what a
	// Save racing a shrink can produce.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f := splitFrames(t, buf.Bytes())
	binary.LittleEndian.PutUint64(f[0][len(checkpointMagic)+2+8*8:], 50)
	f[0] = append(f[0], "recency"...)
	loaded, err := Load(bytes.NewReader(joinFrames(f)))
	if err != nil {
		t.Fatal(err)
	}
	if k := loaded.K(); k > 50 {
		t.Fatalf("loaded model serves K=%d over its cap of 50", k)
	}
	if got := loaded.Config().MaxPrototypes; got != 50 {
		t.Fatalf("loaded cap = %d, want 50", got)
	}
	if _, err := loaded.PredictMean(randQuery(rng, dim)); err != nil {
		t.Fatal(err)
	}
}

// TestSaveConfigRaceWithSetCapacity pins the lock-free capacity-config
// mirror: Save and Config are documented lock-free and must stay race-free
// against concurrent SetCapacity calls (run with -race; this failed before
// the capCfg atomic mirror existed). It also checks a checkpoint never
// pairs inconsistent capacity fields.
func TestSaveConfigRaceWithSetCapacity(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		if _, err := m.Observe(randQuery(rng, 2), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				c := m.Config()
				if (c.MaxPrototypes > 0) != c.Eviction.Recency {
					t.Error("Config paired a cap with another call's policy")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		max := 50 + i%3*25
		if err := m.SetCapacity(max, Eviction{Recency: true}, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := m.SetCapacity(0, m.Config().Eviction, false); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestEvictionPolicyScores pins the policy semantics the docs promise.
func TestEvictionPolicyScores(t *testing.T) {
	wd := Eviction{HalfLife: 100}
	if a, b := wd.score(10, 0), wd.score(10, 100); b != a/2 {
		t.Fatalf("WinDecay half-life broken: %v then %v", a, b)
	}
	if wd.score(100, 0) <= wd.score(10, 0) {
		t.Fatal("WinDecay must rank heavier prototypes above lighter ones")
	}
	r := Eviction{Recency: true}
	if r.score(1000, 50) >= r.score(1, 10) {
		t.Fatal("Recency must ignore wins and rank by last-win time")
	}
	if _, err := ParseEviction("windecay"); err != nil {
		t.Fatal(err)
	}
	if p, err := ParseEviction("recency"); err != nil || !p.Recency || p.Name() != "recency" {
		t.Fatalf("recency parsed as %+v/%v", p, err)
	}
	if p, err := ParseEviction(""); err != nil || p.Name() != "windecay" {
		t.Fatalf("empty policy name should default to windecay, got %v/%v", p, err)
	}
	if _, err := ParseEviction("nope"); err == nil {
		t.Fatal("unknown policy name should fail")
	}
}
