package vector

import "math"

// Masked sentinel rows: a row written with MaskRow is excluded from every
// search in this package (the prototype store no longer masks rows; only
// tests do). Rather than threading a skip-list or a per-row branch
// through every unrolled scan, a masked row is written so the existing
// arithmetic excludes it naturally: every component is +Inf, so its distance
// to any finite query is +Inf, which
//
//   - never wins an argmin (every running-best comparison in this package is
//     strict, and +Inf < x is false for every x including +Inf), and
//   - never passes a finite within-cutoff (the partial-distance kernels
//     abandon the row on its first component).
//
// The masking therefore costs the hot paths nothing — no extra branch, no
// extra load — and is exact by the same argument as the partial-distance
// cutoff: a row at infinite distance cannot be a member of any finite-radius
// result set. Callers that need a finite-valued sentinel in a trailing
// column mask only the leading columns; masking any single column already
// puts the row at infinite distance.
//
// The one cutoff that admits a masked row is +Inf itself (Inf ≤ Inf):
// callers that pass an unbounded cutoff to SqDistanceWithin must not treat
// "within" as "live". The searches in this package only form cutoffs from
// finite radii and running bests, so the case does not arise internally.

// MaskRow overwrites every component of row with +Inf, making the row
// transparent to every distance kernel in this package: it cannot win an
// argmin and cannot fall within any finite radius.
func MaskRow(row []float64) {
	for i := range row {
		row[i] = math.Inf(1)
	}
}
