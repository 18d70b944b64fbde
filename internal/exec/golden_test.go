package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/synth"
)

// updateGolden rewrites testdata/exact_golden.json. The file pins the EXACT
// answers of one commit (see testdata/README.md); regenerating it anywhere
// else defeats the test.
var updateGolden = flag.Bool("update", false, "rewrite testdata/exact_golden.json from this checkout's answers")

const goldenPath = "testdata/exact_golden.json"

// goldenCase is one query and everything the exact executor said about it,
// floats as IEEE-754 bit patterns in hex.
type goldenCase struct {
	Center []float64 `json:"center"`
	Theta  float64   `json:"theta"`
	P      string    `json:"p"` // strconv form, "+Inf" for L∞

	Count   int    `json:"count"`
	IDsFNV  string `json:"ids_fnv"`       // FNV-1a over Select's ids, in order
	IDs     []int  `json:"ids,omitempty"` // the ids themselves, first goldenIDCases cases
	Mean    string `json:"mean,omitempty"`
	MeanErr string `json:"mean_err,omitempty"`

	Intercept string   `json:"intercept,omitempty"`
	Slope     []string `json:"slope,omitempty"`
	FVU       string   `json:"fvu,omitempty"`
	CoD       string   `json:"cod,omitempty"`
	RegErr    string   `json:"reg_err,omitempty"`
}

type goldenRelation struct {
	Name  string       `json:"name"`
	Cases []goldenCase `json:"cases"`
}

const (
	goldenCases   = 256
	goldenIDCases = 32   // cases that carry their id list ...
	goldenIDLimit = 4096 // ... unless it is longer than this
)

// goldenSpec is one relation of the golden file: a synthetic dataset and the
// scale its radii are drawn at.
type goldenSpec struct {
	name       string
	cfg        synth.Config
	thetaScale float64 // multiplies exact_mixed's N(0.1, 0.025) ∩ [0.03, 0.2] radius
	seed       int64
}

var goldenSpecs = []goldenSpec{
	// bench's exact_mixed relation at a tenth of its size.
	{name: "r1_d2", cfg: synth.R1Config(20000, 2, 1), thetaScale: 1, seed: 101},
	// Negative coordinates, d = 5; radii scaled so a query selects a few
	// hundred rows and sits on both sides of the boxCells > n fallback.
	{name: "r2_d5", cfg: synth.R2Config(20000, 5, 2), thetaScale: 60, seed: 102},
}

// goldenExecutor builds the relation the way cmd/llmq's loadExecutor does:
// LoadDataset, then a grid whose cell is a tenth of the mean attribute span.
func goldenExecutor(t testing.TB, cfg synth.Config) *Executor {
	t.Helper()
	pts, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPoints(cfg.Name, pts.Xs, pts.Us)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := engine.NewCatalog().LoadDataset(cfg.Name, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	span := 0.0
	for j := range b.InputMax {
		span += b.InputMax[j] - b.InputMin[j]
	}
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, span/float64(ds.Dim())/10)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenQueries draws the seeded query set of one relation: centres up to a
// tenth of the span outside the data box (so query boxes stick out of the
// grid), radii from exact_mixed's distribution, every norm, and a tenth of
// the cases with θ between one and a thousand spans — whole-grid cell walks
// and row-order full scans.
func goldenQueries(s goldenSpec) []goldenCase {
	rng := rand.New(rand.NewSource(s.seed))
	span := s.cfg.Hi - s.cfg.Lo
	norms := []float64{1, 2, 3, math.Inf(1)}
	out := make([]goldenCase, goldenCases)
	for i := range out {
		c := make([]float64, s.cfg.Dim)
		for j := range c {
			c[j] = s.cfg.Lo - 0.1*span + 1.2*span*rng.Float64()
		}
		theta := s.thetaScale * math.Min(math.Max(0.1+0.025*rng.NormFloat64(), 0.03), 0.2)
		if i%10 == 9 {
			theta = span * math.Pow(10, 3*rng.Float64())
		}
		p := norms[rng.Intn(len(norms))]
		out[i] = goldenCase{Center: c, Theta: theta, P: strconv.FormatFloat(p, 'g', -1, 64)}
	}
	return out
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenAnswer runs the three pinned entry points on c's query and returns c
// with the answers filled in.
func goldenAnswer(t *testing.T, e *Executor, c goldenCase, withIDs bool) goldenCase {
	t.Helper()
	p, err := strconv.ParseFloat(c.P, 64)
	if err != nil {
		t.Fatal(err)
	}
	q := RadiusQuery{Center: c.Center, Theta: c.Theta, P: p}
	out := goldenCase{Center: c.Center, Theta: c.Theta, P: c.P}

	ids, err := e.Select(q)
	if err != nil {
		t.Fatalf("Select(%+v): %v", q, err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	out.Count = len(ids)
	out.IDsFNV = fmt.Sprintf("%016x", h.Sum64())
	if withIDs && len(ids) <= goldenIDLimit {
		out.IDs = ids
	}

	if m, err := e.MeanCtx(context.Background(), q); err != nil {
		out.MeanErr = err.Error()
	} else {
		if m.Count != len(ids) {
			t.Fatalf("MeanCtx counted %d tuples, Select returned %d", m.Count, len(ids))
		}
		out.Mean = floatBits(m.Mean)
	}
	if r, err := e.RegressionCtx(context.Background(), q); err != nil {
		out.RegErr = err.Error()
	} else {
		if r.Count != len(ids) {
			t.Fatalf("RegressionCtx counted %d tuples, Select returned %d", r.Count, len(ids))
		}
		out.Intercept = floatBits(r.Intercept)
		for _, b := range r.Slope {
			out.Slope = append(out.Slope, floatBits(b))
		}
		out.FVU = floatBits(r.FVU)
		out.CoD = floatBits(r.CoD)
	}
	return out
}

// TestExactGolden holds every EXACT answer to the bits recorded at the
// commit named in testdata/README.md: means, counts, coefficients, FVU, CoD
// and the order of Select's ids, on both the cell walk and the row-order
// full scan. bench/ checks the server against the in-process executor of
// the same checkout, so only a file recorded elsewhere can see drift.
func TestExactGolden(t *testing.T) {
	if *updateGolden {
		var rels []goldenRelation
		for _, s := range goldenSpecs {
			e := goldenExecutor(t, s.cfg)
			rel := goldenRelation{Name: s.name}
			for i, c := range goldenQueries(s) {
				rel.Cases = append(rel.Cases, goldenAnswer(t, e, c, i < goldenIDCases))
			}
			rels = append(rels, rel)
		}
		// One case per line keeps the file diffable.
		var b bytes.Buffer
		b.WriteString("[\n")
		for i, rel := range rels {
			fmt.Fprintf(&b, "{\"name\": %q, \"cases\": [\n", rel.Name)
			for j, c := range rel.Cases {
				line, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(line)
				if j < len(rel.Cases)-1 {
					b.WriteByte(',')
				}
				b.WriteByte('\n')
			}
			b.WriteString("]}")
			if i < len(rels)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, b.Len())
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rels []goldenRelation
	if err := json.Unmarshal(raw, &rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != len(goldenSpecs) {
		t.Fatalf("golden file has %d relations, want %d", len(rels), len(goldenSpecs))
	}
	for k, s := range goldenSpecs {
		rel := rels[k]
		if rel.Name != s.name || len(rel.Cases) != goldenCases {
			t.Fatalf("relation %d is %q with %d cases, want %q with %d", k, rel.Name, len(rel.Cases), s.name, goldenCases)
		}
		e := goldenExecutor(t, s.cfg)
		fullScans, errs := 0, 0
		for i, want := range rel.Cases {
			got := goldenAnswer(t, e, want, want.IDs != nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s case %d (θ=%v p=%s) drifted from the recorded answer:\n got %+v\nwant %+v", s.name, i, want.Theta, want.P, trimIDs(got), trimIDs(want))
			}
			if want.Count == s.cfg.N {
				fullScans++
			}
			if want.MeanErr != "" || want.RegErr != "" {
				errs++
			}
		}
		t.Logf("%s: %d cases, %d selecting the whole relation, %d with a recorded error", s.name, len(rel.Cases), fullScans, errs)
	}
}

// trimIDs keeps a failure message readable.
func trimIDs(c goldenCase) goldenCase {
	if len(c.IDs) > 8 {
		c.IDs = c.IDs[:8]
	}
	return c
}
