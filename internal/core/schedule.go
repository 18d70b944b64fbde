package core

import "fmt"

// Schedule produces the SGD learning rate η_t for training step t (t >= 1).
// The paper (Section II-B) requires a slowly decreasing sequence with
// Ση_t = ∞ and Ση_t² < ∞ and adopts the hyperbolic schedule η_t = 1/(t+1).
type Schedule interface {
	// Rate returns η_t for step t >= 1.
	Rate(t int) float64
	// Name identifies the schedule in diagnostics.
	Name() string
}

// Hyperbolic is the paper's default schedule η_t = 1/(t+1).
type Hyperbolic struct{}

// Rate implements Schedule.
func (Hyperbolic) Rate(t int) float64 {
	if t < 1 {
		t = 1
	}
	return 1 / float64(t+1)
}

// Name implements Schedule.
func (Hyperbolic) Name() string { return "hyperbolic" }

// Constant is a fixed learning rate, provided for the learning-rate ablation;
// it violates the Robbins–Monro conditions, so Γ does not converge to zero
// and training only stops when the pair stream is exhausted.
type Constant struct {
	// Eta is the fixed rate; it must lie in (0, 1].
	Eta float64
}

// Rate implements Schedule.
func (c Constant) Rate(int) float64 { return c.Eta }

// Name implements Schedule.
func (c Constant) Name() string { return fmt.Sprintf("constant(%g)", c.Eta) }
