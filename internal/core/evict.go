package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"llmq/internal/wal"
)

// Bounded-capacity streaming training: when Config.MaxPrototypes caps the
// live prototype count, a spawn that exceeds the cap triggers an eviction
// pass. The pass scores every prototype under the configured Eviction
// policy, drops (or merges away) the lowest-scoring ones until the count is
// back inside a hysteresis band below the cap, and builds the next store
// from the survivors in slot order, with a fresh read epoch — all under the
// writer lock, published like any other training step. The slot space is
// never sparse, so slot order stays birth order. The pass writes only new
// chunks, so snapshots pinned before it keep serving their own version of
// every evicted row.

// Eviction ranks prototypes for eviction when a bounded model exceeds its
// capacity: the lowest-scoring prototypes are evicted first. It is one of
// the two policies below, plus win decay's half-life — exactly what a model
// file header and a WAL capacity record carry, so every policy a model runs
// under comes back from its files. Scores are computed at the start of an
// eviction pass from each prototype's absorbed pair count and the number of
// training steps since it last absorbed one — the two signals the store
// maintains per slot (copy-on-write versioned with the rows, so a pass never
// reads another version's clock).
//
// The zero value is win decay: wins · 2^(−sinceWin/HalfLife). A prototype
// that absorbed many pairs survives a dry spell proportional to its mass, so
// it keeps heavy prototypes through a short excursion of the workload but
// lags a workload that keeps moving. Recency scores a prototype by how
// recently it absorbed a pair alone (least recently won evicted first). On
// the drift experiment's sliding window (`llmq-experiments -experiment
// drift`, cap 40, full scale) neither wins everywhere: recency's capped Q1
// RMSE was the lower at d = 2 and d = 5, win decay's at d = 3.
type Eviction struct {
	// Recency selects the recency policy; false selects win decay.
	Recency bool
	// HalfLife is win decay's half-life in training steps: the number of
	// steps over which an idle prototype's score halves, at most
	// wal.MaxHalfLife. A value ≤ 0 derives one from the cap (8·cap,
	// floored at 1024). Recency has none: a model under Recency keeps 0.
	HalfLife int
}

// ParseEviction resolves a policy by its flag name ("windecay" or
// "recency"); the empty string selects the default, win decay. The half-life
// is left to be derived from the cap.
func ParseEviction(name string) (Eviction, error) {
	switch name {
	case "", "windecay":
		return Eviction{}, nil
	case "recency":
		return Eviction{Recency: true}, nil
	default:
		return Eviction{}, fmt.Errorf("%w: unknown eviction policy %q (want windecay or recency)", ErrBadConfig, name)
	}
}

// Name is the policy's flag name, the one model files and WAL capacity
// records carry: "windecay" or "recency".
func (e Eviction) Name() string {
	if e.Recency {
		return "recency"
	}
	return "windecay"
}

// decodeEviction is the policy a model file header or a WAL capacity record
// names, with win decay's recorded half-life (0 when none was recorded).
func decodeEviction(name string, halfLife int) (Eviction, error) {
	e, err := ParseEviction(name)
	if !e.Recency {
		e.HalfLife = halfLife
	}
	return e, err
}

// score is the retention score of a prototype that has absorbed wins pairs,
// the last one sinceWin training steps ago. Higher means keep. The policy is
// a capped model's, so win decay's half-life is positive (newCapacity).
func (e Eviction) score(wins, sinceWin int) float64 {
	if e.Recency {
		return -float64(sinceWin)
	}
	return float64(wins) * math.Exp2(-float64(sinceWin)/float64(e.HalfLife))
}

// newCapacity normalizes the three capacity fields for a cap of max: an
// uncapped model keeps no policy and no merge (a model file records neither
// without a cap), Recency drops any half-life, and win decay without one
// gets one scaled to the cap (8·max steps, floored at 1024) — roughly the
// stream length over which a full prototype generation turns over.
func newCapacity(max int, e Eviction, merge bool) *capacityConfig {
	if max <= 0 {
		return &capacityConfig{}
	}
	switch {
	case e.Recency:
		e.HalfLife = 0
	case e.HalfLife <= 0:
		e.HalfLife = 8 * max
		if e.HalfLife < 1024 {
			e.HalfLife = 1024
		}
	}
	return &capacityConfig{max: max, policy: e, merge: merge}
}

// checkCapacity refuses a cap or a half-life no WAL capacity record can
// carry (see wal.MaxCapacity): a model running under one could not log its
// capacity, and a recovery would read the record as a corrupt tail.
func checkCapacity(max int, e Eviction) error {
	if max < 0 || max > wal.MaxCapacity {
		return fmt.Errorf("%w: MaxPrototypes must be in [0, %d], got %d", ErrBadConfig, wal.MaxCapacity, max)
	}
	if max > 0 && !e.Recency && e.HalfLife > wal.MaxHalfLife {
		return fmt.Errorf("%w: eviction half-life must be at most %d, got %d", ErrBadConfig, wal.MaxHalfLife, e.HalfLife)
	}
	return nil
}

// SetCapacity installs or changes the bounded-capacity configuration at
// runtime: the live-prototype cap, the eviction policy and the
// merge-on-evict behaviour, normalized as NewModel normalizes them (pass
// Config().Eviction to keep the current policy and its half-life). If the
// live count already exceeds the new cap, the lowest-scoring prototypes are
// evicted (or merged) immediately and a new version is published —
// re-capping a large trained model at load time is the intended use. max = 0
// removes the cap, and with it the policy and the merge setting. SetCapacity
// operates even on a converged (frozen) model: capacity is an operational
// property, not a training step.
func (m *Model) SetCapacity(max int, policy Eviction, merge bool) error {
	if err := checkCapacity(max, policy); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// capCfg is the single source of truth for the capacity fields (m.cfg
	// stays immutable after NewModel, so lock-free readers can copy it);
	// store the new value before any eviction, so a concurrent Save never
	// pairs the old capacity block with the new prototype set.
	m.capCfg.Store(newCapacity(max, policy, merge))
	if max > 0 && m.store.k > max {
		m.evictLocked(-1)
		m.publishLocked()
	}
	return nil
}

// scored is one eviction candidate: a slot, its last-win stamp and its
// retention score under the policy.
type scored struct {
	slot  int
	stamp int
	score float64
}

// evictLocked enforces the capacity: it scores every slot (except protect,
// the slot that just spawned — evicting the pair that triggered the pass
// would just respawn it), sorts ascending, and drops or merges victims until
// the count reaches the hysteresis target below the cap. The survivors keep
// their slot order in the store the pass builds, so a protected spawn, the
// last slot, stays the last. Returns the number of prototypes removed. The
// caller holds the writer lock and publishes afterwards.
func (m *Model) evictLocked(protect int) int {
	cc := m.capCfg.Load()
	max := cc.max
	s := m.store
	if max <= 0 || s.k <= max {
		return 0
	}
	// Hysteresis: evict down to max − max/16 (band floored at 1 so small
	// caps still batch) so capacity enforcement runs in batches and its
	// rebuild amortizes over the spawns that refill the band, instead of
	// once per spawn at the cap.
	band := max / 16
	if band < 1 {
		band = 1
	}
	target := max - band
	if target < 1 {
		target = 1
	}
	cands := m.cands[:0]
	for k := 0; k < s.k; k++ {
		if k != protect {
			cands = append(cands, scored{k, s.stamp(k), cc.policy.score(s.win(k), m.steps-s.stamp(k))})
		}
	}
	m.cands = cands
	// Ties break on the last-win stamp (older loses), then the slot id.
	// Exact score ties are real — the policies map small-integer inputs
	// through float arithmetic — and stamps are unique among prototypes (one
	// winner per step; a merge inherits the later stamp).
	slices.SortFunc(cands, func(a, b scored) int {
		return cmp.Or(cmp.Compare(a.score, b.score),
			cmp.Compare(a.stamp, b.stamp), cmp.Compare(a.slot, b.slot))
	})
	n := min(s.k-target, len(cands))
	victims := cands[:n]
	// The merge inputs alias the old store, which nothing writes once the
	// next store replaces it. They merge in score order.
	var merges []slotState
	if cc.merge {
		merges = make([]slotState, n)
		for i, c := range victims {
			merges[i] = s.at(c.slot)
		}
	}
	// Build the next store from the survivors in slot order, THEN merge.
	// Merging first would cost a nearest-survivor scan per victim over a
	// store that still holds the victims; this order pays one epoch build
	// and routes every merge query through it.
	slices.SortFunc(victims, func(a, b scored) int { return cmp.Compare(a.slot, b.slot) })
	ns := newProtoStore(m.cfg.Dim, m.cfg.Vigilance)
	ns.step = s.step
	ns.qbuf, ns.kdstack, ns.staleBuf, ns.idsBuf, ns.touched = s.qbuf, s.kdstack, s.staleBuf, s.idsBuf, s.touched[:0]
	// The solver states are the writer's alone (no snapshot reads them), so
	// the survivors' compact in place: slot k moves to a slot ≤ k.
	ns.rls = s.rls[:0]
	for k, next := 0, 0; k < s.k; k++ {
		if next < n && victims[next].slot == k {
			next++
			continue
		}
		ns.insert(s.at(k))
	}
	clear(s.rls[ns.k:]) // the victims' states and the moved survivors' old copies
	ns.rebuildEpoch()
	m.store = ns
	for _, v := range merges {
		m.mergeVictim(v)
	}
	if len(merges) > 0 && ns.epoch != nil {
		// The merges moved survivors; re-tighten the epoch they drifted
		// from (the searches above stayed exact through the drift slack).
		ns.rebuildEpoch()
	}
	return n
}

// mergeVictim folds an evicted victim into its nearest surviving prototype:
// the survivor's prototype moves to the win-weighted centroid of the two (in
// the query space, radius included) and its local linear coefficients
// become the win-weighted blend — the victim's learned mass stays in the
// model instead of being discarded. The survivor keeps
// its own RLS solver state (the blend adjusts the coefficients; the
// inverse-covariance continues from the survivor's history) and inherits
// the later of the two win stamps. The nearest survivor comes from the
// store's epoch-accelerated winner search over the survivors — exact
// through the drift slack as earlier merges move survivors.
func (m *Model) mergeVictim(v slotState) {
	s := m.store
	n, _ := s.winner(v.row)
	if n < 0 {
		// No survivor (cannot happen while the hysteresis target is ≥ 1);
		// degrade to a plain eviction.
		return
	}
	wv, wn := float64(v.wins), float64(s.win(n))
	tot := wv + wn
	if tot <= 0 {
		return
	}
	blend := func(dst, survivor, victim []float64) {
		for i := range dst {
			dst[i] = (wn*survivor[i] + wv*victim[i]) / tot
		}
	}
	// updateRow, not update: the survivor's move is accounted against the
	// drift budget but must not trigger a rebuild per victim — evictLocked
	// installs the pass's last epoch when all victims are done.
	blend(m.moved, s.row(n), v.row)
	s.updateRow(n, m.moved)
	coef := s.coefForWrite(n)
	blend(coef, coef, v.coef)
	s.setWin(n, s.win(n)+v.wins)
	if v.stamp > s.stamp(n) {
		s.setStamp(n, v.stamp)
	}
}
