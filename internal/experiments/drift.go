package experiments

import (
	"fmt"

	"llmq/internal/core"
	"llmq/internal/workload"
)

// Drift parameters: the centre window covers 30% of each attribute's range
// and crosses the space once while the training pairs and the probe queries
// are drawn; the training stream is cut into driftLegs legs, each scored on
// its own probes. The resolution driftA is fine enough that the unbounded
// model outgrows driftCapacity within one crossing.
const (
	driftLegs     = 4
	driftWindow   = 0.3
	driftCapacity = 40
	driftA        = 0.02
)

// DriftCapacity is the bounded-capacity scenario no figure of the paper
// shows: the analysts' interest moves through the data space, so the query
// stream is non-stationary. A model capped at driftCapacity prototypes
// (win-decay eviction with merge) and its unbounded twin train on the same
// sliding-window stream (R1), leg by leg; after each leg both are scored on
// Q1 queries from the window's current position. The capped model keeps a
// fixed serving budget, while the unbounded one keeps a prototype for every
// region the stream has left behind.
func DriftCapacity(s Scale) ([]*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Drift (R1): capacity %d vs. unbounded on a sliding query window", driftCapacity),
		Columns: []string{"dim", "leg", "window at", "capped K", "capped RMSE",
			"unbounded K", "unbounded RMSE"},
		Notes: []string{
			"expected shape: capped K stays at or below the cap while unbounded K grows with every region the window has visited",
		},
	}
	for _, dim := range s.Dims {
		env, err := NewEnv(R1, dim, s.DatasetN, s.Seed, 0)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewDriftingGenerator(workload.GenConfig{
			Dim: dim, CenterLo: 0, CenterHi: 1,
			ThetaMean: env.ThetaMean, ThetaStdDev: env.ThetaMean / 4, Seed: s.Seed + 29,
		}, workload.DriftConfig{Window: driftWindow, Velocity: 1 / float64(s.TrainPairs+s.TestQueries)})
		if err != nil {
			return nil, err
		}
		h, err := workload.NewHarness(env.Harness.Exec, gen)
		if err != nil {
			return nil, err
		}
		cfg := env.ModelConfig(driftA)
		cfg.Gamma = 1e-12 // track the stream for good: never freeze
		cfg.MinGammaSteps = 1 << 30
		capped := cfg
		capped.MaxPrototypes = driftCapacity
		capped.Eviction = core.Eviction{} // win decay
		capped.MergeOnEvict = true
		mCapped, err := core.NewModel(capped)
		if err != nil {
			return nil, err
		}
		mFree, err := core.NewModel(cfg)
		if err != nil {
			return nil, err
		}
		for leg := 1; leg <= driftLegs; leg++ {
			pairs, err := h.TrainingPairs(s.TrainPairs / driftLegs)
			if err != nil {
				return nil, err
			}
			// TrainBatch ends in the state per-pair Observe calls reach.
			if _, err := mCapped.TrainBatch(pairs); err != nil {
				return nil, err
			}
			if _, err := mFree.TrainBatch(pairs); err != nil {
				return nil, err
			}
			probe := gen.Queries(s.TestQueries / driftLegs)
			evalCapped, err := EvaluateQ1(h, mCapped, probe)
			if err != nil {
				return nil, err
			}
			evalFree, err := EvaluateQ1(h, mFree, probe)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", leg), fmt.Sprintf("%.2f", gen.Position()),
				fmt.Sprintf("%d", mCapped.K()), f(evalCapped.RMSE),
				fmt.Sprintf("%d", mFree.K()), f(evalFree.RMSE))
		}
	}
	return []*Table{t}, nil
}
