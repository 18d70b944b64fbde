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

func BenchmarkExactRegression(b *testing.B) {
	e, qs := exactBenchSetup(b)
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
