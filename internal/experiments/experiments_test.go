package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny is a minimal scale so the whole experiment suite stays fast in unit
// tests; the shape assertions live in the targeted tests below.
var tiny = Scale{
	Name:        "tiny",
	DatasetN:    2500,
	TrainPairs:  1200,
	TestQueries: 120,
	Q2Queries:   16,
	Dims:        []int{2},
	Seed:        7,
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv("bogus", 2, 100, 1, 0); err == nil {
		t.Error("unknown dataset kind accepted")
	}
	env, err := NewEnv(R1, 2, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if env.Dim != 2 || env.Dataset.Len() != 1000 || env.ThetaMean != 0.1 {
		t.Errorf("env = %+v", env)
	}
	// Radius override.
	env2, err := NewEnv(R1, 2, 1000, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if env2.ThetaMean != 0.3 {
		t.Errorf("override ThetaMean = %v", env2.ThetaMean)
	}
	// R2 uses its own ranges.
	env3, err := NewEnv(R2, 2, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if env3.ThetaMean != 1 {
		t.Errorf("R2 ThetaMean = %v", env3.ThetaMean)
	}
}

func TestModelConfigVigilanceScaling(t *testing.T) {
	envR1, _ := NewEnv(R1, 2, 1000, 1, 0)
	envR2, _ := NewEnv(R2, 2, 1000, 1, 0)
	c1 := envR1.ModelConfig(0.25)
	c2 := envR2.ModelConfig(0.25)
	if c2.Vigilance <= c1.Vigilance {
		t.Errorf("R2 vigilance %v must exceed R1 vigilance %v (wider attribute ranges)", c2.Vigilance, c1.Vigilance)
	}
	// a=0 keeps the default resolution.
	def := envR1.ModelConfig(0)
	if def.ResolutionA != 0.25 {
		t.Errorf("default resolution = %v", def.ResolutionA)
	}
}

func TestRegistryAndFind(t *testing.T) {
	reg := Registry()
	if len(reg) < 10 {
		t.Fatalf("registry has only %d experiments", len(reg))
	}
	ids := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "drift"} {
		if _, ok := Find(want); !ok {
			t.Errorf("experiment %q not registered", want)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find should fail for unknown ids")
	}
}

func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestFig06TrainingShape(t *testing.T) {
	tables, err := Fig06Training(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected tables for R1 and R2, got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != len(tiny.Dims) {
			t.Errorf("%s: %d rows", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			steps := parse(t, row[1])
			k := parse(t, row[2])
			if steps <= 0 || k <= 0 {
				t.Errorf("%s: row %v", tab.Title, row)
			}
		}
	}
}

func TestFig07RMSEIncreasesWithA(t *testing.T) {
	tables, err := Fig07RMSEvsA(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			finest := parse(t, row[1])            // a = 0.05
			coarsest := parse(t, row[len(row)-1]) // a = 0.9
			if finest >= coarsest {
				t.Errorf("%s: RMSE at a=0.05 (%v) should be below RMSE at a=0.9 (%v)", tab.Title, finest, coarsest)
			}
		}
	}
}

func TestFig09FVUShape(t *testing.T) {
	tables, err := Fig09FVU(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if !strings.Contains(tab.Title, "R1") {
			continue
		}
		// At the finest resolution (first row per dim): LLM < REG(global)
		// and PLR <= REG.
		row := tab.Rows[0]
		llm, reg, regLocal, plr := parse(t, row[3]), parse(t, row[4]), parse(t, row[5]), parse(t, row[6])
		if llm >= reg {
			t.Errorf("%s: FVU LLM %v should be below REG %v at the finest a", tab.Title, llm, reg)
		}
		if plr > reg {
			t.Errorf("%s: FVU PLR %v should not exceed REG %v", tab.Title, plr, reg)
		}
		if regLocal > reg {
			t.Errorf("%s: FVU REG-local %v should not exceed global REG %v", tab.Title, regLocal, reg)
		}
		// FVU of LLM grows as a → 1 (compare first and last rows).
		last := tab.Rows[len(tab.Rows)-1]
		if parse(t, last[3]) < llm {
			t.Errorf("%s: FVU LLM should not shrink as a → 1 (%v vs %v)", tab.Title, parse(t, last[3]), llm)
		}
	}
}

func TestFig10PrototypesDecreaseWithA(t *testing.T) {
	tables, err := Fig10CoD(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected two panels, got %d", len(tables))
	}
	right := tables[1]
	for _, row := range right.Rows {
		first := parse(t, row[1])
		last := parse(t, row[len(row)-1])
		if first <= last {
			t.Errorf("K at a=0.05 (%v) should exceed K at a=0.9 (%v)", first, last)
		}
	}
	// Left panel: LLM CoD at the finest resolution exceeds the global REG CoD.
	left := tables[0]
	row := left.Rows[0]
	if parse(t, row[3]) <= parse(t, row[4]) {
		t.Errorf("CoD LLM %v should exceed CoD REG %v at finest a", parse(t, row[3]), parse(t, row[4]))
	}
}

func TestFig12ScalabilityShape(t *testing.T) {
	// Timing-based shape check: use a larger dataset sweep than the tiny
	// scale so the exact executor's per-query cost is dominated by the
	// selection size rather than fixed overhead, which keeps the assertion
	// stable even when the test machine is loaded.
	scale := tiny
	scale.DatasetN = 12000
	scale.TrainPairs = 800
	scale.TestQueries = 100
	scale.Q2Queries = 8
	tables, err := Fig12Scalability(scale)
	if err != nil {
		t.Fatal(err)
	}
	q1 := tables[0]
	// The exact executor must slow down as the dataset grows (16x more
	// tuples between the first and last rows) while the LLM stays within a
	// small constant band; compare smallest and largest sizes.
	first := q1.Rows[0]
	last := q1.Rows[len(q1.Rows)-1]
	exactFirst, exactLast := parse(t, first[3]), parse(t, last[3])
	llmFirst, llmLast := parse(t, first[2]), parse(t, last[2])
	if exactLast <= exactFirst {
		t.Errorf("exact Q1 time should grow with dataset size: %v -> %v", exactFirst, exactLast)
	}
	if llmLast > llmFirst*20+0.05 {
		t.Errorf("LLM Q1 time should stay roughly flat: %v -> %v ms", llmFirst, llmLast)
	}
	// Speedup over the exact executor at the largest size.
	if parse(t, last[4]) < 2 {
		t.Errorf("LLM should be at least 2x faster than exact execution at the largest size, got %vx", parse(t, last[4]))
	}
}

func TestFig13And14RadiusImpact(t *testing.T) {
	tables, err := Fig13RadiusImpact(tiny)
	if err != nil {
		t.Fatal(err)
	}
	left := tables[0]
	for _, row := range left.Rows {
		small := parse(t, row[1])          // µθ = 0.05
		large := parse(t, row[len(row)-1]) // µθ = 0.99
		if large >= small {
			t.Errorf("RMSE at µθ=0.99 (%v) should be below RMSE at µθ=0.05 (%v)", large, small)
		}
	}
	right := tables[1]
	// Training effort shrinks as µθ grows: compare first and last rows per dim.
	firstSteps := parse(t, right.Rows[0][2])
	lastSteps := parse(t, right.Rows[len(right.Rows)-1][2])
	if lastSteps > firstSteps {
		t.Errorf("|T| at large µθ (%v) should not exceed |T| at small µθ (%v)", lastSteps, firstSteps)
	}
	traj, err := Fig14RadiusTrajectory(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj[0].Rows) != len(tiny.Dims)*6 {
		t.Errorf("trajectory rows = %d", len(traj[0].Rows))
	}
}

func TestAblationAndGlobalFit(t *testing.T) {
	tables, err := AblationLearning(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 3 {
		t.Fatalf("ablation rows = %d", len(tables[0].Rows))
	}
	// The default (RLS) must not be less accurate than the paper's SGD rule.
	def := parse(t, tables[0].Rows[0][3])
	sgd := parse(t, tables[0].Rows[1][3])
	if def > sgd {
		t.Errorf("default solver RMSE %v should be <= SGD RMSE %v", def, sgd)
	}
	gl, err := GlobalFitBaseline(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range gl[0].Rows {
		if parse(t, row[4]) <= 0 {
			t.Errorf("in-sample global FVU should be positive: %v", row)
		}
	}
}

// TestDriftCapacityShape checks the drift experiment at the tiny scale: the
// capped model never holds more than its cap after a leg, and its unbounded
// twin ends with more prototypes.
func TestDriftCapacityShape(t *testing.T) {
	tables, err := DriftCapacity(tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != len(tiny.Dims)*driftLegs {
		t.Fatalf("drift rows = %d", len(rows))
	}
	for _, row := range rows {
		if k := parse(t, row[3]); k > driftCapacity {
			t.Errorf("leg %s: capped K = %v exceeds the cap %d", row[1], k, driftCapacity)
		}
	}
	last := rows[len(rows)-1]
	if capped, free := parse(t, last[3]), parse(t, last[5]); free <= capped {
		t.Errorf("unbounded K = %v should end above the capped K = %v", free, capped)
	}
}

func TestRunAndRenderAllQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	// Smallest possible scale: every experiment must run end to end and
	// produce non-empty output.
	micro := tiny
	micro.DatasetN = 1500
	micro.TrainPairs = 600
	micro.TestQueries = 60
	micro.Q2Queries = 8
	for _, e := range Registry() {
		var buf bytes.Buffer
		if err := RunAndRender(e, micro, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}
