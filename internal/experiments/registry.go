package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a named, runnable reproduction of one paper figure (or one
// ablation).
type Experiment struct {
	// ID is the short identifier used on the command line (e.g. "fig06").
	ID string
	// Description summarizes what the experiment reproduces.
	Description string
	// Run executes the experiment at the given scale.
	Run func(Scale) ([]*Table, error)
}

// Registry returns every available experiment, sorted by ID.
func Registry() []Experiment {
	exps := []Experiment{
		{ID: "fig06", Description: "termination criterion Γ vs. training pairs (R1, R2)", Run: Fig06Training},
		{ID: "fig07", Description: "Q1 RMSE vs. quantization coefficient a (R1, R2)", Run: Fig07RMSEvsA},
		{ID: "fig08", Description: "Q1 RMSE vs. testing-set size |V| (R1, R2)", Run: Fig08RMSEvsTestSize},
		{ID: "fig09", Description: "Q2 FVU of LLM/REG/PLR vs. coefficient a (R1, R2)", Run: Fig09FVU},
		{ID: "fig10", Description: "CoD vs. prototypes K and K vs. a (R1)", Run: Fig10CoD},
		{ID: "fig11", Description: "data-value RMSE of LLM/REG/PLR (R1, R2)", Run: Fig11DataValue},
		{ID: "fig12", Description: "Q1/Q2 execution time vs. dataset size (R2)", Run: Fig12Scalability},
		{ID: "fig13", Description: "impact of mean radius µθ on RMSE, |T| and CoD (R1)", Run: Fig13RadiusImpact},
		{ID: "fig14", Description: "trajectory of (|T|, RMSE, CoD) over µθ (R1)", Run: Fig14RadiusTrajectory},
		{ID: "drift", Description: "capped vs. unbounded model on a drifting query window (R1)", Run: DriftCapacity},
		{ID: "ablation", Description: "solver and learning-rate ablation (R1)", Run: AblationLearning},
		{ID: "globalfit", Description: "global linear fit motivation numbers (R1, R2)", Run: GlobalFitBaseline},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAndRender runs an experiment and renders its tables to w.
func RunAndRender(e Experiment, s Scale, w io.Writer) error {
	tables, err := e.Run(s)
	if err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
