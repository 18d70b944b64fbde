package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"llmq/internal/index"
)

// scatterConfig is the shared configuration of the scatter/fuse tests: a
// vigilance that yields a few dozen prototypes and a gamma small enough
// that the models never converge (a converged model freezes, which would
// desynchronize continue-training comparisons between a parent and its
// split/fuse round trip).
func scatterConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.25
	cfg.Gamma = 1e-12
	return cfg
}

func bumpySurface(x []float64, theta float64) float64 {
	y := 3 * theta
	for i, xi := range x {
		y += math.Sin(4*xi) + 0.5*float64(i+1)*xi*xi
	}
	return y
}

// reconstructScatter re-runs the single-model fusion loop over one shard's
// raw terms: normalize the degrees by their running total in slot order,
// then accumulate. It must land on the exact floats the View methods
// produce, because it is the same values in the same operation order.
func reconstructScatter(res ScatterResult) (mean, value float64) {
	var total float64
	for _, c := range res.Contribs {
		total += c.Degree
	}
	for _, c := range res.Contribs {
		w := c.Degree / total
		mean += w * c.Mean
		value += w * c.Value
	}
	return mean, value
}

// TestScatterScanReconstructsPredictions is the local half of the sharding
// bit-identity contract: merging a single model's own ScatterScan result
// must reproduce PredictMean, PredictValue and Regression bit for bit, on
// both the overlap path and the empty-overlap winner extrapolation path.
func TestScatterScanReconstructsPredictions(t *testing.T) {
	m, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(surfaceStream(600, 2, bumpySurface, 11)); err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v.Dim() != 2 {
		t.Fatalf("View.Dim() = %d, want 2", v.Dim())
	}
	if v.MaxTheta() <= 0 {
		t.Fatalf("View.MaxTheta() = %v, want > 0", v.MaxTheta())
	}
	rng := rand.New(rand.NewSource(12))
	overlapped, extrapolated := 0, 0
	for i := 0; i < 400; i++ {
		q := Query{
			Center: []float64{rng.Float64()*1.6 - 0.3, rng.Float64()*1.6 - 0.3},
			Theta:  rng.Float64() * 0.2,
		}
		at := []float64{rng.Float64(), rng.Float64()}
		res, err := v.ScatterScan(q, at, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Live != v.K() || res.MaxTheta != v.MaxTheta() {
			t.Fatalf("ScatterScan live/maxTheta = %d/%v, view says %d/%v",
				res.Live, res.MaxTheta, v.K(), v.MaxTheta())
		}
		wantMean, err := v.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		wantValue, err := v.PredictValue(q, at)
		if err != nil {
			t.Fatal(err)
		}
		wantModels, err := v.Regression(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Contribs) == 0 {
			extrapolated++
			if math.IsInf(res.WinnerDist, 1) {
				t.Fatalf("empty overlap on a live model must report a finite winner distance")
			}
			if res.WinnerMean != wantMean {
				t.Fatalf("winner mean %v, PredictMean %v", res.WinnerMean, wantMean)
			}
			if res.WinnerValue != wantValue {
				t.Fatalf("winner value %v, PredictValue %v", res.WinnerValue, wantValue)
			}
			if res.WinnerModel == nil || !reflect.DeepEqual(*res.WinnerModel, wantModels[0]) {
				t.Fatalf("winner model %+v, Regression %+v", res.WinnerModel, wantModels[0])
			}
			continue
		}
		overlapped++
		gotMean, gotValue := reconstructScatter(res)
		if gotMean != wantMean {
			t.Fatalf("reconstructed mean %v, PredictMean %v", gotMean, wantMean)
		}
		if gotValue != wantValue {
			t.Fatalf("reconstructed value %v, PredictValue %v", gotValue, wantValue)
		}
		if len(res.Contribs) != len(wantModels) {
			t.Fatalf("%d contributions, Regression returned %d models", len(res.Contribs), len(wantModels))
		}
		var total float64
		for _, c := range res.Contribs {
			total += c.Degree
		}
		for j, c := range res.Contribs {
			model := *c.Model
			model.Weight = c.Degree / total
			if !reflect.DeepEqual(model, wantModels[j]) {
				t.Fatalf("contribution %d model %+v, Regression %+v", j, model, wantModels[j])
			}
		}
	}
	if overlapped == 0 || extrapolated == 0 {
		t.Fatalf("query mix exercised only one path: %d overlapped, %d extrapolated", overlapped, extrapolated)
	}

	// An empty model scatters to nothing, with no error.
	empty, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := empty.View().ScatterScan(Query{Center: []float64{0, 0}, Theta: 0.1}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != 0 || len(res.Contribs) != 0 || !math.IsInf(res.WinnerDist, 1) {
		t.Fatalf("empty model scatter = %+v", res)
	}

	// Dimension mismatches are rejected.
	if _, err := v.ScatterScan(Query{Center: []float64{0.5}, Theta: 0.1}, nil, false); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad query dim: %v", err)
	}
	if _, err := v.ScatterScan(Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, []float64{1}, false); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad at dim: %v", err)
	}
}

// TestSplitFuseRoundTrip splits a trained model into one group and fuses it
// back: the round trip must preserve every answer bit for bit, and — because
// Split and Fuse carry the full writer state including the RLS solver
// matrices — training the original and the round trip on the same further
// stream must keep them bit-identical.
func TestSplitFuseRoundTrip(t *testing.T) {
	m, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(surfaceStream(500, 2, bumpySurface, 21)); err != nil {
		t.Fatal(err)
	}
	kids, err := Split(m, 1, func([]float64, float64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	child := kids[0]
	if child.K() != m.K() || child.Steps() != m.Steps() {
		t.Fatalf("split child K/steps %d/%d, parent %d/%d", child.K(), child.Steps(), m.K(), m.Steps())
	}
	if child.View().Converged() {
		t.Fatal("split child must start unconverged")
	}
	fused, err := Fuse(m.Config(), child)
	if err != nil {
		t.Fatal(err)
	}
	if fused.K() != m.K() || fused.Steps() != m.Steps() {
		t.Fatalf("fused K/steps %d/%d, parent %d/%d", fused.K(), fused.Steps(), m.K(), m.Steps())
	}
	compare := func(stage string) {
		t.Helper()
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 200; i++ {
			q := Query{Center: []float64{rng.Float64(), rng.Float64()}, Theta: rng.Float64() * 0.2}
			at := []float64{rng.Float64(), rng.Float64()}
			for name, other := range map[string]*Model{"split": child, "fuse": fused} {
				pm, err1 := m.View().PredictMean(q)
				om, err2 := other.View().PredictMean(q)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if pm != om {
					t.Fatalf("%s/%s: PredictMean %v, parent %v", stage, name, om, pm)
				}
				pv, err1 := m.View().PredictValue(q, at)
				ov, err2 := other.View().PredictValue(q, at)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if pv != ov {
					t.Fatalf("%s/%s: PredictValue %v, parent %v", stage, name, ov, pv)
				}
			}
		}
	}
	compare("fresh")
	extra := surfaceStream(250, 2, bumpySurface, 23)
	for _, mm := range []*Model{m, child, fused} {
		if _, err := mm.TrainBatch(extra); err != nil {
			t.Fatal(err)
		}
	}
	if m.View().Converged() {
		t.Fatal("parent converged mid-test; the continue-training comparison needs an unconverged stream")
	}
	compare("continued")
}

// TestSplitByPartitionRegions splits a model along an index.Partition: every
// child prototype must lie inside its leaf's region box, the prototype count
// must be conserved, and any query whose routing set (region box distance
// within θ plus the child's MaxTheta) is a single leaf must get a
// bit-identical answer from that child alone — the point-to-point fast path
// of the sharded router.
func TestSplitByPartitionRegions(t *testing.T) {
	m, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := surfaceStream(800, 2, bumpySurface, 31)
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	sample := make([]float64, 0, 2*len(pairs))
	for _, p := range pairs {
		sample = append(sample, p.Query.Center...)
	}
	part, err := index.NewPartition(2, 4, sample, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	kids, err := Split(m, 4, func(center []float64, _ float64) int { return part.Locate(center) })
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	extra := make([]float64, 4)
	for leaf, child := range kids {
		sum += child.K()
		extra[leaf] = child.View().MaxTheta()
		lo, hi, err := part.Region(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for slot, e := range writerSlots(child) {
			if e.row == nil {
				continue
			}
			for a, x := range e.center() {
				if x < lo[a] || x >= hi[a] {
					t.Errorf("leaf %d slot %d: centre %v outside region [%v, %v)", leaf, slot, e.center(), lo, hi)
				}
			}
		}
	}
	if sum != m.K() {
		t.Fatalf("children hold %d prototypes, parent %d", sum, m.K())
	}
	rng := rand.New(rand.NewSource(32))
	matched := 0
	for i := 0; i < 600; i++ {
		q := Query{Center: []float64{rng.Float64(), rng.Float64()}, Theta: rng.Float64() * 0.05}
		leaves := part.Touching(q.Center, q.Theta, extra, nil)
		if len(leaves) != 1 || kids[leaves[0]].K() == 0 {
			continue
		}
		res, err := m.View().ScatterScan(q, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Contribs) == 0 {
			// The parent extrapolates from its global winner, which may live
			// in another region; point-to-point routing only covers the
			// overlap path. The sharded winner fallback is the router's job.
			continue
		}
		matched++
		want, err := m.View().PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kids[leaves[0]].View().PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("single-leaf query %v: child %d answered %v, parent %v", q, leaves[0], got, want)
		}
	}
	if matched < 50 {
		t.Fatalf("only %d single-leaf overlap queries; the point-to-point path is undertested", matched)
	}
}

// TestFuseStampsAndValidation covers the bookkeeping edges of Fuse and
// Split: stamp uniqueness after the rank remap, the summed step clock,
// capacity enforcement on the fused result, and argument validation.
func TestFuseStampsAndValidation(t *testing.T) {
	a, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TrainBatch(surfaceStream(300, 2, bumpySurface, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.TrainBatch(surfaceStream(300, 2, bumpySurface, 42)); err != nil {
		t.Fatal(err)
	}
	fused, err := Fuse(a.Config(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if fused.K() != a.K()+b.K() {
		t.Fatalf("fused K = %d, want %d", fused.K(), a.K()+b.K())
	}
	if fused.Steps() != a.Steps()+b.Steps() {
		t.Fatalf("fused steps = %d, want %d", fused.Steps(), a.Steps()+b.Steps())
	}
	seen := map[int]bool{}
	for slot, e := range writerSlots(fused) {
		if e.row == nil {
			continue
		}
		st := e.stamp
		if st <= 0 || st > fused.Steps() {
			t.Errorf("slot %d stamp %d outside (0, %d]", slot, st, fused.Steps())
		}
		if seen[st] {
			t.Errorf("duplicate stamp %d", st)
		}
		seen[st] = true
	}

	// A capacity below the combined prototype count is enforced immediately.
	capCfg := a.Config()
	capCfg.MaxPrototypes = fused.K() / 2
	small, err := Fuse(capCfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if small.K() > capCfg.MaxPrototypes {
		t.Fatalf("capacity-bounded fuse holds %d prototypes, cap %d", small.K(), capCfg.MaxPrototypes)
	}

	if _, err := Fuse(a.Config()); err == nil {
		t.Fatal("Fuse with no models accepted")
	}
	wrong := a.Config()
	wrong.Dim = 3
	if _, err := Fuse(wrong, a); !errors.Is(err, ErrDimension) {
		t.Fatalf("dim-mismatched fuse: %v", err)
	}
	if _, err := Split(a, 0, func([]float64, float64) int { return 0 }); err == nil {
		t.Fatal("Split with 0 groups accepted")
	}
	if _, err := Split(a, 2, func([]float64, float64) int { return 5 }); err == nil {
		t.Fatal("out-of-range assign accepted")
	}
}

// TestSplitAssignCannotMutateParent: Split's assign sees each prototype,
// and what it does to its argument must stay with it — the parent's rows
// are shared with published snapshots, and hashed, trained on and served
// from one copy.
func TestSplitAssignCannotMutateParent(t *testing.T) {
	parent, err := NewModel(scatterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.TrainBatch(surfaceStream(600, 2, bumpySurface, 41)); err != nil {
		t.Fatal(err)
	}
	probe := Query{Center: []float64{0.4, 0.6}, Theta: 0.3}
	protos := writerSlots(parent)
	hash, _ := parent.StateHash()
	mean, err := parent.PredictMean(probe)
	if err != nil {
		t.Fatal(err)
	}
	kids, err := Split(parent, 2, func(center []float64, _ float64) int {
		g := 0
		if center[0] >= 0.5 {
			g = 1
		}
		clear(center)
		return g
	})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, e := range writerSlots(parent) {
		if !reflect.DeepEqual(e, protos[i]) {
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("assign changed %d of %d parent prototypes", changed, len(protos))
	}
	if h, _ := parent.StateHash(); h != hash {
		t.Errorf("parent StateHash changed: %s, was %s", h, hash)
	}
	if got, err := parent.PredictMean(probe); err != nil || got != mean {
		t.Errorf("parent PredictMean = %v, %v; was %v", got, err, mean)
	}
	// The children hold the parent's prototypes, not what assign left behind.
	held := 0
	for _, kid := range kids {
		for _, e := range writerSlots(kid) {
			if slices.ContainsFunc(protos, func(p slotState) bool { return reflect.DeepEqual(p, e) }) {
				held++
			}
		}
	}
	if held != len(protos) {
		t.Errorf("children hold %d of the parent's %d prototypes unchanged", held, len(protos))
	}
}
