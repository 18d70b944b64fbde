package core

import (
	"fmt"
	"math"
	"slices"
)

// Sharding primitives: Split carves one model's prototype set into N
// disjoint models and Fuse concatenates models back into one. Both copy the
// full writer state — prototypes, coefficients, win counts, eviction-clock
// stamps and the RLS solver matrices — so the children (or the fused whole)
// continue training exactly where the inputs left off. Neither is on a
// serving path: Fuse builds the union model a sharded set is held to, and
// Split carves a trained model into a set for the state golden's
// split-train-fuse history and the shard tests. The prototypes a shard trains stay inside its region (every drift,
// spawn and merge-on-evict step is a convex combination of region points),
// so a region split induces a clean prototype split.

// assembleModel builds a model that starts from a prepared prototype set,
// finishing the way Load does. The result is unconverged (its criterion
// state resets like a post-spawn step — the parameter-set cardinality just
// changed) and enforces cfg's capacity.
func assembleModel(cfg Config, steps int, entries []slotState) (*Model, error) {
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	m.steps, m.store.step = steps, steps
	m.lastGamma = math.Inf(1)
	for _, e := range entries {
		m.store.insert(e)
	}
	m.finishLoad()
	return m, nil
}

// Fuse builds one model holding every live prototype of the input models,
// concatenated in input order (each input's slots in ascending order) — the
// "union model" a sharded deployment is defined to equal: scatter/gather
// answers are property-tested bit-identical to the fused model's, because
// both accumulate the same per-prototype terms in the same shard-major
// order. The inputs are read under their writer locks (taken one at a time,
// never nested) and are not modified; the fused model owns deep copies,
// including each prototype's RLS solver state, so it can keep training.
//
// The training-step clock becomes the sum of the inputs' steps, and the
// eviction stamps — meaningful only within one model's clock — are remapped
// to their rank in the combined (stamp, input order) ordering, preserving
// relative recency per input and the uniqueness the eviction tie-break
// relies on. cfg supplies the fused model's configuration (its capacity is
// enforced immediately); every input must match its dimensionality.
func Fuse(cfg Config, ms ...*Model) (*Model, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: Fuse needs at least one model", ErrBadConfig)
	}
	var entries []slotState
	steps := 0
	for i, src := range ms {
		if src.cfg.Dim != cfg.Dim {
			return nil, fmt.Errorf("%w: model %d has dim %d, fuse config has %d", ErrDimension, i, src.cfg.Dim, cfg.Dim)
		}
		src.mu.Lock()
		steps += src.steps
		for slot := 0; slot < src.store.k; slot++ {
			entries = append(entries, src.store.at(slot).clone())
		}
		src.mu.Unlock()
	}
	// Remap stamps to ranks of the stable (stamp, concatenation index)
	// order: unique by construction, and ≤ the summed step clock (each
	// input's live count is bounded by its steps).
	rank := make([]int, len(entries))
	for i := range rank {
		rank[i] = i
	}
	slices.SortStableFunc(rank, func(a, b int) int {
		if d := entries[a].stamp - entries[b].stamp; d != 0 {
			return d
		}
		return a - b
	})
	for r, i := range rank {
		entries[i].stamp = r + 1
	}
	return assembleModel(cfg, steps, entries)
}

// Split partitions a model's live prototypes into n new models by the
// assign function, which maps each prototype (centre, radius) to a group in
// [0, n). Each child owns deep copies of its prototypes' full writer state
// — coefficients, win counts, stamps, RLS matrices — in the parent's slot
// order, inherits the parent's step clock (so stamps stay valid), and
// starts unconverged so it keeps absorbing its region's stream. The parent
// is read under its writer lock and left untouched — assign sees a scratch
// copy of each prototype, so nothing it does to its argument reaches the
// parent or the children; cfg comes from the parent's current configuration.
func Split(m *Model, n int, assign func(center []float64, theta float64) int) ([]*Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: Split needs a positive group count, got %d", ErrBadConfig, n)
	}
	cfg := m.Config()
	groups := make([][]slotState, n)
	arg := make([]float64, cfg.Dim+1)
	m.mu.Lock()
	steps := m.steps
	for slot := 0; slot < m.store.k; slot++ {
		copy(arg, m.store.row(slot))
		g := assign(arg[:cfg.Dim], arg[cfg.Dim])
		if g < 0 || g >= n {
			m.mu.Unlock()
			return nil, fmt.Errorf("core: Split assign sent prototype %d to group %d of %d", slot, g, n)
		}
		groups[g] = append(groups[g], m.store.at(slot).clone())
	}
	m.mu.Unlock()
	out := make([]*Model, n)
	for i := range out {
		child, err := assembleModel(cfg, steps, groups[i])
		if err != nil {
			return nil, err
		}
		out[i] = child
	}
	return out, nil
}
