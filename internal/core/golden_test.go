package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// updateApproxGolden rewrites testdata/approx_golden.json. The file pins the
// APPROX answers of one commit (see testdata/README.md); regenerating it
// anywhere else defeats the test. This file calls only the pinned public API
// (NewModel, TrainBatch, SetCapacity, View, PredictMean, PredictValue,
// Regression, Neighborhood, ScatterScan, Winner, Checkpoint, Load) so it can
// be copied into the recording commit unchanged.
var updateApproxGolden = flag.Bool("update", false, "rewrite testdata/approx_golden.json from this checkout's answers")

const approxGoldenPath = "testdata/approx_golden.json"

// approxCase is everything one pinned View said about one query, floats as
// IEEE-754 bit patterns in hex. The query itself is not stored: the seeded
// generator redraws it. Lists are FNV-1a hashes of the bit patterns in
// answer order — fusion visits members in ascending slot order, so the
// order is the slot list — and the first approxDetailCases cases of each
// shape's first View also carry the lists themselves.
type approxCase struct {
	Kind    string `json:"kind"`
	Members int    `json:"members"` // |W(q)|, 0 on Case 3 extrapolation
	Winner  int    `json:"winner"`  // View.Winner's slot
	Mean    string `json:"mean"`
	Value   string `json:"value"`

	Hood    string `json:"hood"`    // Neighborhood: centre ‖ θ ‖ normalized weight per member
	Models  string `json:"models"`  // Regression: intercept ‖ slope ‖ centre ‖ θ ‖ weight
	Scatter string `json:"scatter"` // ScatterScan: raw degree ‖ mean ‖ value ‖ model, then the winner terms

	WeightList []string `json:"weight_list,omitempty"`
	DegreeList []string `json:"degree_list,omitempty"`
	InterList  []string `json:"intercept_list,omitempty"`
}

type approxView struct {
	Name  string       `json:"name"`
	K     int          `json:"k"`
	Steps int          `json:"steps"`
	Cases []approxCase `json:"cases"`
}

type approxShape struct {
	Name  string       `json:"name"`
	Views []approxView `json:"views"`
}

const approxDetailCases = 2

// bitsHash is an FNV-1a digest over float bit patterns.
type bitsHash struct{ h hash.Hash64 }

func newBitsHash() bitsHash { return bitsHash{fnv.New64a()} }

func (b bitsHash) add(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) String() string { return fmt.Sprintf("%016x", b.h.Sum64()) }

func approxBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenStream is the seeded pair/query source of one golden shape: centres
// around cluster points that can move between phases (so a bounded model
// sees its old regions abandoned and evicts in bursts), one pair in `every`
// uniform over the unit cube, θ in [0.05, 0.15] as on sheet_wide.
type goldenStream struct {
	dim     int
	sigma   float64
	every   int
	centers [][]float64
	rng     *rand.Rand
}

func newGoldenStream(dim, clusters, every int, seed int64) *goldenStream {
	g := &goldenStream{dim: dim, sigma: 0.05, every: every, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < clusters; i++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 0.15 + 0.7*g.rng.Float64()
		}
		g.centers = append(g.centers, c)
	}
	return g
}

// shift moves every cluster a couple of σ, abandoning some old prototypes.
func (g *goldenStream) shift() {
	for _, c := range g.centers {
		for j := range c {
			c[j] = math.Min(math.Max(c[j]+0.06*g.rng.NormFloat64(), 0.05), 0.95)
		}
	}
}

func (g *goldenStream) clustered() Query {
	c := g.centers[g.rng.Intn(len(g.centers))]
	x := make([]float64, g.dim)
	for j := range x {
		x[j] = c[j] + g.sigma*g.rng.NormFloat64()
	}
	return Query{Center: x, Theta: 0.05 + 0.1*g.rng.Float64()}
}

func (g *goldenStream) uniform() Query {
	x := make([]float64, g.dim)
	for j := range x {
		x[j] = g.rng.Float64()
	}
	return Query{Center: x, Theta: 0.05 + 0.1*g.rng.Float64()}
}

func (g *goldenStream) pairs(n int) []TrainingPair {
	out := make([]TrainingPair, n)
	for i := range out {
		q := g.clustered()
		if g.rng.Intn(g.every) == 0 {
			q = g.uniform()
		}
		y := q.Theta
		for j, v := range q.Center {
			y += math.Sin(float64(j+1) * v)
		}
		out[i] = TrainingPair{Query: q, Answer: y + 0.01*g.rng.NormFloat64()}
	}
	return out
}

// goldenQuery is one drawn query with its PredictValue point.
type goldenQuery struct {
	kind string
	q    Query
	at   []float64
}

// queries draws a View's query set: clustered statements, uniform ones whose
// radius grows with d (a unit cube's neighbours are far apart at d = 8, so
// these are the mid-range balls between a cluster query and a broad one),
// broad ones that cover more than half the prototypes, and far ones that
// overlap nothing (Case 3).
func (g *goldenStream) queries() []goldenQuery {
	var out []goldenQuery
	add := func(kind string, q Query) {
		at := make([]float64, g.dim)
		for j := range at {
			at[j] = q.Center[j] + 0.01*g.rng.NormFloat64()
		}
		out = append(out, goldenQuery{kind, q, at})
	}
	for i := 0; i < 14; i++ {
		add("clustered", g.clustered())
	}
	for i := 0; i < 6; i++ {
		q := g.uniform()
		q.Theta *= float64(g.dim) / 2
		add("uniform", q)
	}
	for i := 0; i < 2; i++ {
		q := g.uniform()
		q.Theta = 3 + 2*g.rng.Float64()
		add("broad", q)
	}
	for i := 0; i < 2; i++ {
		q := g.uniform()
		for j := range q.Center {
			q.Center[j] += 4
		}
		q.Theta = 0.01
		add("empty", q)
	}
	return out
}

// approxAnswer runs every pinned read entry point of v on gq.
func approxAnswer(t *testing.T, v View, gq goldenQuery, detail bool) approxCase {
	t.Helper()
	out := approxCase{Kind: gq.kind}
	var err error
	fail := func(what string, err error) {
		t.Fatalf("%s(%s θ=%v): %v", what, gq.kind, gq.q.Theta, err)
	}
	if out.Winner, _, err = v.Winner(gq.q); err != nil {
		fail("Winner", err)
	}
	mean, err := v.PredictMean(gq.q)
	if err != nil {
		fail("PredictMean", err)
	}
	out.Mean = approxBits(mean)
	val, err := v.PredictValue(gq.q, gq.at)
	if err != nil {
		fail("PredictValue", err)
	}
	out.Value = approxBits(val)

	protos, weights, err := v.Neighborhood(gq.q)
	if err != nil {
		fail("Neighborhood", err)
	}
	out.Members = len(protos)
	nh := newBitsHash()
	for i, p := range protos {
		nh.add(p.Center...)
		nh.add(p.Theta, weights[i])
		if detail {
			out.WeightList = append(out.WeightList, approxBits(weights[i]))
		}
	}
	out.Hood = nh.String()

	models, err := v.Regression(gq.q)
	if err != nil {
		fail("Regression", err)
	}
	mh := newBitsHash()
	addModel := func(h bitsHash, m LocalLinear) {
		h.add(m.Intercept)
		h.add(m.Slope...)
		h.add(m.Center...)
		h.add(m.Theta, m.Weight)
	}
	for _, m := range models {
		addModel(mh, m)
		if detail {
			out.InterList = append(out.InterList, approxBits(m.Intercept))
		}
	}
	out.Models = mh.String()

	res, err := v.ScatterScan(gq.q, gq.at, true)
	if err != nil {
		fail("ScatterScan", err)
	}
	if len(res.Contribs) != len(protos) {
		t.Fatalf("ScatterScan has %d contributions, Neighborhood %d members", len(res.Contribs), len(protos))
	}
	sh := newBitsHash()
	for _, c := range res.Contribs {
		sh.add(c.Degree, c.Mean, c.Value)
		addModel(sh, *c.Model)
		if detail {
			out.DegreeList = append(out.DegreeList, approxBits(c.Degree))
		}
	}
	sh.add(float64(res.Live), res.WinnerDist, res.WinnerMean, res.WinnerValue, res.MaxTheta)
	if res.WinnerModel != nil {
		addModel(sh, *res.WinnerModel)
	}
	out.Scatter = sh.String()
	return out
}

// goldenRecorder collects the Views of one shape; answer queries them all
// at the end, after every later training step has run, so a View pinned
// mid-stream is read while the writer has long moved on.
type goldenRecorder struct {
	names []string
	views []View
}

func (r *goldenRecorder) pin(name string, m *Model) {
	r.names = append(r.names, name)
	r.views = append(r.views, m.View())
}

// answer queries every pinned View; visit, when non-nil, sees each View,
// query and recorded case as it is answered.
func (r *goldenRecorder) answer(t *testing.T, shape string, g *goldenStream, visit func(View, goldenQuery, approxCase)) approxShape {
	t.Helper()
	out := approxShape{Name: shape}
	for i, v := range r.views {
		av := approxView{Name: r.names[i], K: v.K(), Steps: v.Steps()}
		kinds := map[string]int{}
		for _, gq := range g.queries() {
			c := approxAnswer(t, v, gq, i == 0 && gq.kind == "clustered" && kinds[gq.kind] < approxDetailCases)
			kinds[gq.kind]++
			if visit != nil {
				visit(v, gq, c)
			}
			switch {
			case gq.kind == "broad" && 2*c.Members <= av.K:
				t.Fatalf("%s/%s: broad query overlaps %d of %d prototypes, want more than half", shape, av.Name, c.Members, av.K)
			case gq.kind == "empty" && c.Members != 0:
				t.Fatalf("%s/%s: far query overlaps %d prototypes, want none", shape, av.Name, c.Members)
			}
			av.Cases = append(av.Cases, c)
		}
		out.Views = append(out.Views, av)
	}
	return out
}

func goldenTrain(t *testing.T, m *Model, pairs []TrainingPair) {
	t.Helper()
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
}

func goldenReload(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenVigilance packs a few hundred prototypes per shape: enough for a
// grid epoch at d = 2 and a k-d tree epoch at d = 5 and 8.
var goldenVigilance = map[int]float64{2: 0.025, 5: 0.07, 8: 0.09}

// approxGoldenShapes builds, per dimensionality, the four model histories
// the file pins and answers the query set on every View pinned along them,
// passing visit (may be nil) to goldenRecorder.answer.
func approxGoldenShapes(t *testing.T, visit func(View, goldenQuery, approxCase)) []approxShape {
	t.Helper()
	var out []approxShape
	for _, dim := range []int{2, 5, 8} {
		cfg := DefaultConfig(dim)
		cfg.Vigilance = goldenVigilance[dim]
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		name := func(s string) string { return fmt.Sprintf("d%d/%s", dim, s) }

		// static: trained, then only read.
		g := newGoldenStream(dim, 10, 5, int64(1000+dim))
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			goldenTrain(t, m, g.pairs(256))
		}
		var rec goldenRecorder
		rec.pin("trained", m)
		out = append(out, rec.answer(t, name("static"), g, visit))

		// stream: Views pinned between small batches of one continuing
		// stream — appended tails, drifted and re-trained rows under one
		// epoch, and the rebuilds in between.
		rec = goldenRecorder{}
		for i := 0; i < 3; i++ {
			goldenTrain(t, m, g.pairs(23+14*i))
			rec.pin(fmt.Sprintf("batch%d", i), m)
		}
		goldenTrain(t, m, g.pairs(256))
		rec.pin("after", m)
		out = append(out, rec.answer(t, name("stream"), g, visit))

		// reloaded: the same model through Checkpoint → Load, then trained on.
		rec = goldenRecorder{}
		rm := goldenReload(t, m)
		rec.pin("loaded", rm)
		goldenTrain(t, rm, g.pairs(40))
		rec.pin("loaded+40", rm)
		out = append(out, rec.answer(t, name("reloaded"), g, visit))

		// bounded: a capped model on a moving stream (eviction bursts; the
		// view named "reused" predates the compacting pass and keeps its
		// name), shrunk twice at runtime — once shallow, once deep with
		// merge-on-evict — and reloaded between the shrinks.
		g = newGoldenStream(dim, 4, 10, int64(2000+dim))
		bcfg := cfg
		bcfg.MaxPrototypes = 240
		bm, err := NewModel(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		rec = goldenRecorder{}
		for phase := 0; phase < 3; phase++ {
			for i := 0; i < 3; i++ {
				goldenTrain(t, bm, g.pairs(120))
			}
			rec.pin(fmt.Sprintf("phase%d", phase), bm)
			g.shift()
		}
		goldenTrain(t, bm, g.pairs(17))
		rec.pin("reused", bm)
		if err := bm.SetCapacity(180, bm.Config().Eviction, false); err != nil {
			t.Fatal(err)
		}
		rec.pin("shrunk", bm)
		goldenTrain(t, bm, g.pairs(60))
		rec.pin("shrunk+60", bm)
		lm := goldenReload(t, bm)
		goldenTrain(t, lm, g.pairs(60))
		rec.pin("shrunk-loaded+60", lm)
		if err := bm.SetCapacity(70, bm.Config().Eviction, true); err != nil {
			t.Fatal(err)
		}
		rec.pin("merged", bm)
		goldenTrain(t, bm, g.pairs(200))
		rec.pin("merged+200", bm)
		out = append(out, rec.answer(t, name("bounded"), g, visit))
	}
	return out
}

// marshalApproxGolden renders the file one case per line, so a diff of two
// recordings names the cases that moved.
func marshalApproxGolden(t *testing.T, shapes []approxShape) []byte {
	t.Helper()
	var b bytes.Buffer
	sep := func(more bool) string {
		if more {
			return ",\n"
		}
		return "\n"
	}
	b.WriteString("[\n")
	for i, s := range shapes {
		fmt.Fprintf(&b, "{\"name\":%q,\"views\":[\n", s.Name)
		for j, v := range s.Views {
			fmt.Fprintf(&b, " {\"name\":%q,\"k\":%d,\"steps\":%d,\"cases\":[\n", v.Name, v.K, v.Steps)
			for k, c := range v.Cases {
				line, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString("  ")
				b.Write(line)
				b.WriteString(sep(k+1 < len(v.Cases)))
			}
			b.WriteString(" ]}" + sep(j+1 < len(s.Views)))
		}
		b.WriteString("]}" + sep(i+1 < len(shapes)))
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestApproxGolden holds every APPROX answer — means, values, weights, raw
// degrees, local models and the member order — to the bits recorded at the
// commit named in testdata/README.md. bench/ checks the server against the
// in-process model of the same checkout, so only a file recorded elsewhere
// can see the fusion path drift.
func TestApproxGolden(t *testing.T) {
	got := approxGoldenShapes(t, nil)
	if *updateApproxGolden {
		if err := os.WriteFile(approxGoldenPath, marshalApproxGolden(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(approxGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []approxShape
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d shapes, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Views) != len(want[i].Views) {
			t.Fatalf("shape %d: %s with %d views, golden %s with %d", i, got[i].Name, len(got[i].Views), want[i].Name, len(want[i].Views))
		}
		for j, wv := range want[i].Views {
			gv := got[i].Views[j]
			if gv.Name != wv.Name || gv.K != wv.K || gv.Steps != wv.Steps || len(gv.Cases) != len(wv.Cases) {
				t.Fatalf("%s/%s: K=%d steps=%d cases=%d, golden %s K=%d steps=%d cases=%d", want[i].Name, gv.Name,
					gv.K, gv.Steps, len(gv.Cases), wv.Name, wv.K, wv.Steps, len(wv.Cases))
			}
			for k := range wv.Cases {
				if !reflect.DeepEqual(gv.Cases[k], wv.Cases[k]) {
					t.Errorf("%s/%s case %d:\n got  %+v\n want %+v", want[i].Name, wv.Name, k, gv.Cases[k], wv.Cases[k])
				}
			}
		}
	}
}
