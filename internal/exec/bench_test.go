package exec

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"llmq/internal/engine"
	"llmq/internal/synth"
)

// The benchmarks below run on bench/'s exact_mixed shape: relation R1 with
// 200 000 rows at d = 2, a grid cell of a tenth of the span, centres in
// [0.05, 0.95]² and θ ~ N(0.1, 0.025) clipped to [0.03, 0.2]. They report
// rows/op — the selected rows per query — beside the time, since the exact
// path's cost is per row.

var exactBench struct {
	once    sync.Once
	table   *engine.Table
	e       *Executor
	queries []RadiusQuery
}

func exactBenchSetup(b *testing.B) (*Executor, []RadiusQuery) {
	b.Helper()
	exactBench.once.Do(func() {
		tab, ds := loadTable(b, 200000, 2, synth.SensorSurrogate, 0.05, 1)
		e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		qs := make([]RadiusQuery, 512)
		for i := range qs {
			qs[i] = RadiusQuery{
				Center: []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()},
				Theta:  math.Min(math.Max(0.1+0.025*rng.NormFloat64(), 0.03), 0.2),
			}
		}
		exactBench.table, exactBench.e, exactBench.queries = tab, e, qs
	})
	return exactBench.e, exactBench.queries
}

func BenchmarkExactMean(b *testing.B) {
	e, qs := exactBenchSetup(b)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.MeanCtx(context.Background(), qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Count
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// exactBenchD5 is the golden file's r2_d5 relation (20 000 rows at d = 5,
// coordinates in [-10, 10]) under exact_mixed's radii scaled by the golden
// file's 60, centres in the middle nine tenths of each span, redrawn when
// they select too few rows for a fit: the shape on which a regression takes
// the fit's general-d loop.
var exactBenchD5 struct {
	once    sync.Once
	e       *Executor
	queries []RadiusQuery
}

func exactBenchD5Setup(b *testing.B) (*Executor, []RadiusQuery) {
	b.Helper()
	exactBenchD5.once.Do(func() {
		spec := goldenSpecs[1]
		e := goldenExecutor(b, spec.cfg)
		lo, span := spec.cfg.Lo, spec.cfg.Hi-spec.cfg.Lo
		rng := rand.New(rand.NewSource(19))
		qs := make([]RadiusQuery, 0, 512)
		for len(qs) < cap(qs) {
			c := make([]float64, spec.cfg.Dim)
			for j := range c {
				c[j] = lo + span*(0.05+0.9*rng.Float64())
			}
			q := RadiusQuery{
				Center: c,
				Theta:  spec.thetaScale * math.Min(math.Max(0.1+0.025*rng.NormFloat64(), 0.03), 0.2),
			}
			if ids, err := e.Select(q); err != nil {
				b.Fatal(err)
			} else if len(ids) > spec.cfg.Dim { // enough rows for a fit
				qs = append(qs, q)
			}
		}
		exactBenchD5.e, exactBenchD5.queries = e, qs
	})
	return exactBenchD5.e, exactBenchD5.queries
}

// BenchmarkExactRegression runs the exact Q2 path on exact_mixed's d = 2
// relation, where the fit accumulates in registers, and on the d = 5 one,
// where it takes the general loop.
func BenchmarkExactRegression(b *testing.B) {
	b.Run("d=2", func(b *testing.B) {
		e, qs := exactBenchSetup(b)
		benchRegression(b, e, qs)
	})
	b.Run("d=5", func(b *testing.B) {
		e, qs := exactBenchD5Setup(b)
		benchRegression(b, e, qs)
	})
}

func benchRegression(b *testing.B, e *Executor, qs []RadiusQuery) {
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RegressionCtx(context.Background(), qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Count
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

func BenchmarkExecutorBuild(b *testing.B) {
	exactBenchSetup(b)
	tab := exactBench.table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tab.Len()), "rows/op")
}
