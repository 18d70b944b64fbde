package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Bounded-capacity streaming training: when Config.MaxPrototypes caps the
// live prototype count, a spawn that exceeds the cap triggers an eviction
// pass. The pass scores every live prototype with the configured
// EvictionPolicy, tombstones (or merges away) the lowest-scoring ones until
// the count is back inside a hysteresis band below the cap, and installs a
// fresh read epoch over the survivors — all under the writer lock, published
// like any other training step. On the chunked copy-on-write store the whole
// pass costs a handful of chunk copies plus one epoch rebuild; snapshots
// pinned before the pass keep serving their own version of every evicted
// row.

// EvictionPolicy ranks prototypes for eviction when a bounded model exceeds
// its capacity: the lowest-scoring prototypes are evicted first. Scores are
// computed at the start of an eviction pass from each prototype's absorbed
// pair count and the number of training steps since it last absorbed one —
// the two signals the store maintains per slot (copy-on-write versioned with
// the rows, so a policy never reads another version's clock).
type EvictionPolicy interface {
	// Score returns the retention score of a prototype that has absorbed
	// wins pairs, the last one sinceWin training steps ago. Higher means
	// keep.
	Score(wins, sinceWin int) float64
	// Name identifies the policy in command-line flags and serialized
	// models.
	Name() string
}

// WinDecay scores a prototype by its win count decayed by the time since
// its last win: wins · 2^(−sinceWin/HalfLife). A prototype that absorbed
// many pairs survives a dry spell proportional to its mass, so the policy
// retires regions the stream has left while keeping long-lived heavy
// prototypes through short workload excursions — the usual default for
// drifting workloads. HalfLife is in training steps; values ≤ 0 use 1024
// (Config validation derives a capacity-scaled default instead).
type WinDecay struct {
	// HalfLife is the number of training steps over which an idle
	// prototype's score halves.
	HalfLife int
}

// Score implements EvictionPolicy.
func (p WinDecay) Score(wins, sinceWin int) float64 {
	hl := p.HalfLife
	if hl <= 0 {
		hl = 1024
	}
	return float64(wins) * math.Exp2(-float64(sinceWin)/float64(hl))
}

// Name implements EvictionPolicy.
func (p WinDecay) Name() string { return "windecay" }

// Recency scores a prototype purely by how recently it absorbed a pair
// (least-recently-won evicted first), ignoring win counts entirely: the
// aggressive tracker for fast-moving workloads, where a once-heavy
// prototype the stream has abandoned is exactly what should go first.
type Recency struct{}

// Score implements EvictionPolicy.
func (Recency) Score(wins, sinceWin int) float64 { return -float64(sinceWin) }

// Name implements EvictionPolicy.
func (Recency) Name() string { return "recency" }

// ParseEvictionPolicy resolves a policy by its flag name ("windecay" or
// "recency"); the empty string selects the default (WinDecay).
func ParseEvictionPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case "", "windecay":
		return WinDecay{}, nil
	case "recency":
		return Recency{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown eviction policy %q (want windecay or recency)", ErrBadConfig, name)
	}
}

// normalizeEviction fills policy defaults for a capacity of max: a nil
// policy becomes WinDecay, and a WinDecay without a half-life gets one
// scaled to the capacity (8·max steps, floored at 1024) — roughly the
// stream length over which a full prototype generation turns over.
func normalizeEviction(p EvictionPolicy, max int) EvictionPolicy {
	if p == nil {
		p = WinDecay{}
	}
	if wd, ok := p.(WinDecay); ok && wd.HalfLife <= 0 {
		hl := 8 * max
		if hl < 1024 {
			hl = 1024
		}
		return WinDecay{HalfLife: hl}
	}
	return p
}

// SetCapacity installs or changes the bounded-capacity configuration at
// runtime: the live-prototype cap, the eviction policy (nil keeps the
// current one, defaulting if none is set) and the merge-on-evict behaviour.
// If the live count already exceeds the new cap, the lowest-scoring
// prototypes are evicted (or merged) immediately and a new version is
// published — re-capping a large trained model at load time is the
// intended use. max = 0 removes the cap. SetCapacity operates even on a
// converged (frozen) model: capacity is an operational property, not a
// training step.
func (m *Model) SetCapacity(max int, policy EvictionPolicy, merge bool) error {
	if max < 0 {
		return fmt.Errorf("%w: MaxPrototypes must be non-negative, got %d", ErrBadConfig, max)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if policy == nil {
		policy = m.capCfg.Load().policy
	}
	if max > 0 {
		policy = normalizeEviction(policy, max)
	}
	// capCfg is the single source of truth for the capacity fields (m.cfg
	// stays immutable after NewModel, so lock-free readers can copy it);
	// store the new value before any eviction, so a concurrent Save never
	// pairs the old capacity block with the new prototype set.
	m.capCfg.Store(&capacityConfig{max: max, policy: policy, merge: merge})
	if max > 0 && m.store.live > max {
		m.evictLocked(-1)
		m.publishLocked()
	}
	return nil
}

// scored is one eviction candidate: a live slot, its last-win stamp and its
// retention score under the policy.
type scored struct {
	slot  int
	stamp int
	score float64
}

// evictLocked enforces the capacity: it scores every live slot (except
// protect, the slot that just spawned — evicting the pair that triggered
// the pass would just respawn it), sorts ascending, and evicts or merges
// victims until the live count reaches the hysteresis target below the cap,
// then installs a new epoch over the survivors. Returns the number of
// prototypes removed. The caller holds the writer lock and publishes
// afterwards.
func (m *Model) evictLocked(protect int) int {
	cc := m.capCfg.Load()
	max := cc.max
	s := m.store
	if max <= 0 || s.live <= max {
		return 0
	}
	// Hysteresis: evict down to max − max/16 (band floored at 1 so small
	// caps still batch) so capacity enforcement runs in batches and its
	// epoch rebuild amortizes over the spawns that refill the band,
	// instead of once per spawn at the cap.
	band := max / 16
	if band < 1 {
		band = 1
	}
	target := max - band
	if target < 1 {
		target = 1
	}
	policy := normalizeEviction(cc.policy, max)
	cands := m.cands[:0]
	for k := 0; k < s.rows; k++ {
		if k == protect || s.isTombstone(k) {
			continue
		}
		cands = append(cands, scored{k, s.stamp(k), policy.Score(s.win(k), m.steps-s.stamp(k))})
	}
	m.cands = cands
	// Ties break on the last-win stamp (older loses), then the slot id.
	// Exact score ties are real — the policies map small-integer inputs
	// through float arithmetic — and the stamp is the tie-break that is
	// stable across slot renumbering: stamps are unique among live
	// prototypes (one winner per step; a merge inherits the later stamp),
	// while slot ids get permuted whenever a Load or compaction rebuilds
	// the slot space. Without this, a model recovered from a checkpoint
	// could evict a different prototype than the uncrashed run.
	slices.SortFunc(cands, func(a, b scored) int {
		return cmp.Or(cmp.Compare(a.score, b.score),
			cmp.Compare(a.stamp, b.stamp), cmp.Compare(a.slot, b.slot))
	})
	n := s.live - target
	if n > len(cands) {
		n = len(cands)
	}
	// Tombstone every victim first (saving the merge inputs), THEN install
	// the pass's single fresh index, THEN merge. Interleaving a per-victim
	// nearest-survivor scan with the tombstoning would cost O(victims ·
	// rows · d) — quadratic on a deep shrink of a large model — while this
	// order pays one rebuild (or compaction) and routes every merge query
	// through the epoch index over the survivors.
	var victims []slotState
	if cc.merge {
		victims = make([]slotState, 0, n)
	}
	for i := 0; i < n; i++ {
		v := cands[i].slot
		if cc.merge {
			victim := s.at(v)
			victim.p = nil // mergeVictim never reads the solver state
			victims = append(victims, victim.clone())
		}
		s.evictSlot(v)
	}
	// Steady-state eviction keeps tombstones bounded by the hysteresis
	// band, but a deep shrink (SetCapacity, or loading an over-cap file)
	// can leave the slot space dominated by tombstones — and row scans,
	// scoring passes and Save all walk every slot. Once tombstones
	// outnumber the survivors, rebuild the slot space outright. Only the
	// deep-shrink callers (protect < 0) compact: compaction renumbers
	// slots, and the spawn-driven path has already recorded the new
	// prototype's slot id in its StepInfo — that path also cannot reach a
	// majority-tombstone store, since spawning reuses free slots long
	// before tombstones outnumber the live set.
	if protect < 0 && s.rows > 2*s.live {
		m.compactLocked() // installs its own fresh epoch
	} else if s.epoch != nil {
		// The old epoch indexes the victims' stale positions; install a
		// new one over the survivors before the lock is released so no
		// search ever prunes against a tombstoned row's stale geometry.
		s.rebuildEpoch()
	}
	for _, v := range victims {
		m.mergeVictim(v)
	}
	if len(victims) > 0 && m.store.epoch != nil {
		// The merges moved survivors; re-tighten the epoch they drifted
		// from (the searches above stayed exact through the drift slack).
		m.store.rebuildEpoch()
	}
	return n
}

// compactLocked renumbers the store to exactly its live prototypes: a
// fresh chunk table holding the survivors in slot order, no tombstones, no
// free list, no revived slots, and a fresh epoch. Published snapshots are
// untouched — they hold their own chunk tables and epochs, and slot ids
// are only ever meaningful within one version (slot reuse already recycles
// them between versions). The caller holds the writer lock and publishes
// afterwards.
func (m *Model) compactLocked() {
	s := m.store
	ns := newProtoStore(m.cfg.Dim, m.cfg.Vigilance)
	ns.step = s.step
	for k := 0; k < s.rows; k++ {
		if !s.isTombstone(k) {
			ns.insert(s.at(k))
		}
	}
	ns.rebuildEpoch() // drops to the flat scan below the size gate
	m.store = ns
}

// mergeVictim folds an already-tombstoned victim into its nearest
// surviving prototype: the survivor's prototype moves to the win-weighted
// centroid of the two (in the query space, radius included) and its local
// linear coefficients become the win-weighted blend — the victim's learned
// mass stays in the model instead of being discarded. The survivor keeps
// its own RLS solver state (the blend adjusts the coefficients; the
// inverse-covariance continues from the survivor's history) and inherits
// the later of the two win stamps. The nearest survivor comes from the
// store's epoch-accelerated winner search over the live rows — exact
// through the drift slack as earlier merges move survivors, with masked
// tombstones transparent to every path.
func (m *Model) mergeVictim(v slotState) {
	s := m.store
	n, _ := s.winner(v.row)
	if n < 0 || s.isTombstone(n) {
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
