package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/index"
	"llmq/internal/sqlfront"
	"llmq/internal/synth"
)

// TestHugeRadiusStatement is the regression test of the overflowing query
// box, through the SQL front end: WITHIN 1e18 (and beyond) used to answer
// "query selects no tuples" on a grid-backed executor while 1e17 averaged
// the whole relation.
func TestHugeRadiusStatement(t *testing.T) {
	tab, ds := loadTable(t, 2000, 2, synth.SensorSurrogate, 0.05, 4)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(sql string) MeanResult {
		t.Helper()
		st, err := sqlfront.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := e.MeanCtx(context.Background(), RadiusQuery{Center: st.Center, Theta: st.Theta, P: st.Norm})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	want := answer("SELECT AVG(u) FROM t WITHIN 1e17 OF (0.5, 0.5)")
	if want.Count != tab.Len() {
		t.Fatalf("WITHIN 1e17 selected %d of %d tuples", want.Count, tab.Len())
	}
	for _, sql := range []string{
		"SELECT AVG(u) FROM t WITHIN 1e18 OF (0.5, 0.5)",
		"SELECT AVG(u) FROM t WITHIN 1e300 OF (0.5, 0.5)",
		"SELECT AVG(u) FROM t WITHIN 1e18 OF (0.5, 0.5) NORM LINF",
		"SELECT AVG(u) FROM t WITHIN 3e19 OF (1e19, -1e19)",
	} {
		got := answer(sql)
		if got.Count != want.Count || math.Float64bits(got.Mean) != math.Float64bits(want.Mean) {
			t.Errorf("%s: (%d, %v), want the whole relation (%d, %v)", sql, got.Count, got.Mean, want.Count, want.Mean)
		}
	}
}

// TestSuppliedGridTakesTheClusteredPath checks the grid the executor builds
// from the table's columns is the one index.NewGrid builds from the
// dataset's rows at the same cell size: the same clustered points, bit for
// bit, the same ids at every position, and the output column clustered to
// match.
func TestSuppliedGridTakesTheClusteredPath(t *testing.T) {
	tab, ds := loadTable(t, 3000, 3, synth.SensorSurrogate, 0.05, 6)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := index.NewGrid(ds.Xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.grid.IDs(), want.IDs()) {
		t.Fatal("the executor's grid stores its rows at other positions than index.NewGrid's")
	}
	got, wantPts := e.grid.Points(), want.Points()
	if len(got) != len(wantPts) {
		t.Fatalf("%d coordinates, index.NewGrid has %d", len(got), len(wantPts))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(wantPts[k]) {
			t.Fatalf("coordinate %d: %v, index.NewGrid has %v", k, got[k], wantPts[k])
		}
	}
	for k, id := range want.IDs() {
		if math.Float64bits(e.out[k]) != math.Float64bits(ds.Us[id]) {
			t.Fatalf("position %d: output %v, row %d has %v", k, e.out[k], id, ds.Us[id])
		}
	}
}

// TestFlatConstructorMatchesTheWrapper builds one CSV relation both ways:
// dataset.ParseCSV straight into NewExecutor, and ReadCSV through an
// engine table into NewExecutorWithGrid. The grid's row positions, its
// clustered points and the clustered output must agree bit for bit, so
// every exact answer does.
func TestFlatConstructorMatchesTheWrapper(t *testing.T) {
	for _, dim := range []int{2, 3} {
		_, src := loadTable(t, 5000, dim, synth.SensorSurrogate, 0.05, int64(dim))
		var buf bytes.Buffer
		if err := src.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rel, err := dataset.ParseCSV("r", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		flat, err := NewExecutor(rel.X, rel.U, rel.InputNames, rel.OutputName, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dataset.ReadCSV("r", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := engine.NewCatalog().LoadDataset("r", ds)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(flat.grid.IDs(), wrapped.grid.IDs()) {
			t.Fatalf("d=%d: the grids store rows at different positions", dim)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"point coordinate", flat.grid.Points(), wrapped.grid.Points()}, {"output", flat.out, wrapped.out}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("d=%d: %d values of %s, the wrapper has %d", dim, len(c.got), c.name, len(c.want))
			}
			for k := range c.got {
				if math.Float64bits(c.got[k]) != math.Float64bits(c.want[k]) {
					t.Fatalf("d=%d: %s %d: %v, the wrapper has %v", dim, c.name, k, c.got[k], c.want[k])
				}
			}
		}
	}
}

// TestInvalidNormIsAnError runs every entry point of the executor with a
// norm below 1 or NaN, on the cell walk and on the row-order scan: each
// returns index.ErrNorm, and none panics.
func TestInvalidNormIsAnError(t *testing.T) {
	tab, ds := loadTable(t, 2000, 2, synth.Paraboloid, 0, 15)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range []float64{0.5, -1, math.NaN()} {
		for _, theta := range []float64{0.2, 1e3} {
			q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: theta, P: p}
			for name, call := range map[string]func() error{
				"MeanCtx":        func() error { _, err := e.MeanCtx(ctx, q); return err },
				"RegressionCtx":  func() error { _, err := e.RegressionCtx(ctx, q); return err },
				"Select":         func() error { _, err := e.Select(q); return err },
				"SubspaceValues": func() error { _, _, err := e.SubspaceValues(q); return err },
			} {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return call()
				}()
				if !errors.Is(err, index.ErrNorm) {
					t.Errorf("%s with P = %v, θ = %v: err = %v, want index.ErrNorm", name, p, theta, err)
				}
			}
		}
	}
}

// TestSubspaceValuesFollowsSelect pins the rows SubspaceValues hands the
// evaluation harness to Select's ids: ds.Xs[id] and ds.Us[id] for each id,
// in Select's order, to the bit. The figures of package experiments are
// computed from these rows.
func TestSubspaceValuesFollowsSelect(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		tab, ds := loadTable(t, 3000, dim, synth.SensorSurrogate, 0.05, int64(20+dim))
		e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range mixedQueries(dim, 40, int64(30+dim)) {
			ids, err := e.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			xs, us, err := e.SubspaceValues(q)
			if len(ids) == 0 {
				if !errors.Is(err, ErrEmptySubspace) {
					t.Fatalf("d=%d %+v: empty selection, SubspaceValues err = %v", dim, q, err)
				}
				continue
			}
			if err != nil || len(xs) != len(ids) || len(us) != len(ids) {
				t.Fatalf("d=%d %+v: %d rows, %d values, err %v for %d ids", dim, q, len(xs), len(us), err, len(ids))
			}
			for k, id := range ids {
				same := len(xs[k]) == dim && math.Float64bits(us[k]) == math.Float64bits(ds.Us[id])
				for j := 0; same && j < dim; j++ {
					same = math.Float64bits(xs[k][j]) == math.Float64bits(ds.Xs[id][j])
				}
				if !same {
					t.Fatalf("d=%d %+v: row %d is (%v, %v), Select's id %d is (%v, %v)", dim, q, k, xs[k], us[k], id, ds.Xs[id], ds.Us[id])
				}
			}
		}
	}
}

// mixedQueries draws n seeded queries over [0,1]^dim: every norm, radii
// around the grid cell, and an occasional one wider than the relation.
func mixedQueries(dim, n int, seed int64) []RadiusQuery {
	rng := rand.New(rand.NewSource(seed))
	norms := []float64{0, 1, 2, 3, math.Inf(1)}
	qs := make([]RadiusQuery, n)
	for i := range qs {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		theta := 0.05 + 0.25*rng.Float64()
		if i%16 == 15 {
			theta = 50
		}
		qs[i] = RadiusQuery{Center: c, Theta: theta, P: norms[rng.Intn(len(norms))]}
	}
	return qs
}

func sameRegression(a, b RegressionResult) bool {
	if a.Count != b.Count || len(a.Slope) != len(b.Slope) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		math.Float64bits(a.FVU) != math.Float64bits(b.FVU) || math.Float64bits(a.CoD) != math.Float64bits(b.CoD) {
		return false
	}
	for j := range a.Slope {
		if math.Float64bits(a.Slope[j]) != math.Float64bits(b.Slope[j]) {
			return false
		}
	}
	return true
}

// TestConcurrentExactQueriesMatchSerial shares one grid-backed executor
// among 8 goroutines running 500 mixed means and regressions each and
// requires every answer bit-equal to the serial run: the pooled scratch must
// never leak one call's selection into another's. Run with -race.
func TestConcurrentExactQueriesMatchSerial(t *testing.T) {
	tab, ds := loadTable(t, 8000, 2, synth.SensorSurrogate, 0.05, 12)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := mixedQueries(2, 125, 13)
	type answer struct {
		mean MeanResult
		reg  RegressionResult
		err  error
	}
	run := func(i int) answer {
		q := qs[i%len(qs)]
		if i%3 == 0 {
			r, err := e.RegressionCtx(ctx, q)
			return answer{reg: r, err: err}
		}
		m, err := e.MeanCtx(ctx, q)
		return answer{mean: m, err: err}
	}
	same := func(a, b answer) bool {
		return (a.err == nil) == (b.err == nil) && a.mean.Count == b.mean.Count &&
			math.Float64bits(a.mean.Mean) == math.Float64bits(b.mean.Mean) && sameRegression(a.reg, b.reg)
	}
	const workers, calls = 8, 500
	want := make([]answer, calls)
	for i := range want {
		want[i] = run(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				i := (k + 61*w) % calls // every worker walks the calls from its own offset
				if got := run(i); !same(got, want[i]) {
					t.Errorf("worker %d call %d: %+v, serial run said %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on — a client that hangs up while the scan is running.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestGridScanStopsOnCancel runs the context checks of the exact path on an
// executor over 200 000 rows: a context cancelled before, or in the middle
// of, a scan of the whole relation comes back as ctx.Err(), on the cell walk
// and on the row-order scan alike.
func TestGridScanStopsOnCancel(t *testing.T) {
	tab, ds := loadTable(t, 200000, 2, synth.Paraboloid, 0, 14)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for name, theta := range map[string]float64{"cell walk": 1, "row scan": 1e3} {
		q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: theta}
		if res, err := e.MeanCtx(context.Background(), q); err != nil || res.Count != tab.Len() {
			t.Fatalf("%s: live context: %+v, %v", name, res, err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.MeanCtx(cancelled, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MeanCtx on a cancelled context: err = %v", name, err)
		}
		if _, err := e.RegressionCtx(cancelled, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: RegressionCtx on a cancelled context: err = %v", name, err)
		}
		// A full scan polls 200 000/ctxCheckRows ≈ 48 times; cancelling at the
		// tenth poll must stop it there.
		mid := &cancelAfter{Context: context.Background(), left: 10}
		if _, err := e.MeanCtx(mid, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MeanCtx cancelled mid-scan: err = %v", name, err)
		}
		if mid.left != -1 {
			t.Errorf("%s: the scan polled its context %d more times after the cancellation", name, -1-mid.left)
		}
	}
}
