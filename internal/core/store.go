package core

import (
	"fmt"
	"math"
	"slices"

	"llmq/internal/index"
	"llmq/internal/vector"
)

// Chunk geometry, shared with the vector kernels that scan chunked matrices.
const (
	chunkShift = vector.ChunkShift
	chunkRows  = vector.ChunkRows
	chunkMask  = vector.ChunkMask
)

// protoStore is the model's parameter set α, and its only copy: every
// prototype w_k = [x_k, θ_k] is packed into row-major chunks of chunkRows
// rows × (d+1) columns, with parallel coefficient rows [y_k, b_{X,k},
// b_{Θ,k}] of d+2 columns and per-row win counts and last-win stamps —
// everything a prediction needs, in cache-contiguous memory. Training reads
// the winner's rows, computes the Theorem 4 step and writes the rows back
// (see Model.observeLocked); the only per-prototype state outside the chunks
// is rls, the solver's inverse covariances, which no reader touches. All
// methods assume the caller holds the model's writer lock; readers never
// touch the store — they read immutable storeSnapshot values published from
// it (see snapshot.go).
//
// # Chunked copy-on-write publication
//
// Publication used to copy the whole K×(d+1) and K×(d+2) matrices per
// Observe — O(K) for a step that touches one row. The store now keeps the
// rows in fixed-size chunks and shares unchanged chunks by pointer across
// versions:
//
//   - publish copies only the chunk-pointer table (⌈K/chunkRows⌉ slice
//     pointers) into the snapshot and marks every chunk shared;
//   - a write to row i of a shared chunk first copies that one chunk
//     (copy-on-write) — unless i was appended after the last publication
//     (i >= pubK), in which case no published reader can see the row and the
//     write lands in place;
//   - chunks are allocated at full capacity up front, so appending a row
//     never relocates a chunk another version is reading.
//
// One training pair therefore publishes in O(chunkRows·d + K/chunkRows):
// the winner-row chunk copy plus the pointer tables, independent of K for
// any realistic K. A spawn appends into the tail chunk in place (the row is
// invisible to every published k) and costs no copy at all.
//
// # The read epoch
//
// Sub-O(K) searches (the winner of Eq. 5 and the overlap set W(q) of Eq. 10)
// run against a readEpoch: an immutable index over a stale copy of the
// prototype rows, rebuilt periodically on the write path and shared by
// pointer between the store and every snapshot published since the rebuild.
// Width ≤ 4 query spaces get a uniform grid (index.Grid, the exact
// executor's clustered grid, cell side 2ρ — prototypes are at least ρ apart,
// so cells hold only a handful and the ring walk visits only the few cells
// the winner's cutoff box reaches); wider spaces get a bulk-built
// implicit-layout k-d tree (median splits, ~32–64-row leaves stored
// contiguously, exact per-node bounding boxes — see index.BulkKDTree),
// whose box bounds keep discriminating where 1-D projections concentrate.
//
// Between rebuilds the epoch is stale: prototypes drift and new ones are
// appended. Staleness never breaks exactness. Appended rows live in the
// trailing chunks of the live matrix and are scanned separately, and every
// pruning bound is widened by maxDrift, a bound on every indexed row's
// displacement from the epoch's copy — not on the length of the path it
// took, so a prototype that jitters about its stored position does not use
// up the budget. A row's live distance is at least its stale distance minus
// its displacement, so a row pruned under the widened bound cannot have
// won, and what survives is verified against the live rows — or, on the
// overlap path of a tree epoch, against the epoch's own copy when the
// reader can prove the copy current (see readEpoch). Rebuilds happen on the
// write path once the tail or the displacement grows past its threshold,
// amortizing to O(log K) per step. A grid epoch is rebuilt by merging the
// last one: the rows written since its build (touched) and the tail are
// re-celled into a copy of its clustered arrays, and only a row leaving its
// extent forces a build from scratch. Because an epoch is
// never mutated after it is built, snapshots share it without copying,
// exactly as they share unchanged row chunks.
//
// # The max-θ invariant
//
// maxTheta is an upper bound on every stored prototype radius θ_k,
// maintained incrementally: add and update max it with the incoming θ, so it
// is monotone between rebuilds (a θ that drifts back down can leave it
// loose, which costs search radius but never exactness), and each epoch
// rebuild recomputes it exactly. It turns the overlap test
// ‖x − x_k‖ ≤ θ + θ_k into a radius query: every overlapping prototype lies
// within θ + maxTheta of the query centre, hence within
// √((θ+maxTheta)² + max(θ, maxTheta)²) of [x, θ] in the query space.
//
// # An eviction pass compacts
//
// Slots 0..k−1 all hold live prototypes: the slot space is never sparse. A
// spawn appends, and bounded-capacity training (Config.MaxPrototypes)
// removes prototypes only in an eviction pass, which builds the next store
// from the survivors in slot order (see Model.evictLocked). Slot order is
// therefore birth order, a function of the training history alone, and a
// model reloaded from its own file holds the same slots in the same order
// and answers bit for bit. The pass writes fresh chunks and a fresh epoch,
// so a snapshot pinned before it keeps serving its own version of every
// row, and every slot an epoch indexes is live for the epoch's lifetime.
type protoStore struct {
	chunkTable

	k         int     // prototypes K, in slots 0..k−1
	pubK      int     // k at the last publication; slots >= pubK are unpublished
	vigilance float64 // rebuild threshold scale (the prototype spacing)

	// rls[k] is slot k's RLS inverse covariance, row-major over the d+2
	// local parameters [y, b_X, b_Θ]; nil until the slot's first RLS step,
	// and always under the SGD solver. It stays out of the copy-on-write
	// chunks on purpose: a chunk copy is the publish cost, and these are
	// (d+2)² floats per row that only the writer reads.
	rls [][]float64

	// touched lists the slots a grid epoch indexes whose rows were written
	// since its build (repeats allowed), so the next epoch re-cells only
	// them; cleared on rebuild.
	touched []int32

	// shared[c] records whether any published snapshot references chunk c —
	// a write to a published row of a shared chunk must copy the chunk
	// first.
	shared []bool

	epoch    *readEpoch // immutable, shared with published snapshots
	maxDrift float64    // monotone upper bound on a row's distance from its epoch copy
	maxTheta float64    // monotone upper bound on θ_k, tightened per rebuild

	// step is the training step in progress (the last completed one between
	// steps), set by the model: the smallest stamp a row write from now on
	// can carry, and so the epoch's capture step. dirty records that a slot
	// below the epoch's builtK was written after the epoch captured it.
	step  int
	dirty bool

	qbuf     []float64 // winnerQuery scratch (single writer)
	kdstack  []int32   // k-d tree traversal scratch (single writer)
	staleBuf []float64 // rebuildEpoch stale-row gather scratch (single writer)
	idsBuf   []int32   // mergeGrid moved-slot gather scratch (single writer)
}

// chunkTable is the chunk-layout decoder shared by the writer-side store
// and every published snapshot, so the layout arithmetic exists exactly
// once. Each chunk is ONE allocation laid out as
// [chunkRows×width prototype rows][chunkRows×coefW coefficient rows]
// [chunkRows win counts][chunkRows last-win step stamps] (counts and stamps
// stored as float64 — exact below 2^53): a row's prototype, coefficients,
// win count and stamp dirty together on a winner update, so keeping them in
// one buffer makes the copy-on-write copy one allocation, and referencing
// chunks through *vector.Chunk makes publication copy one word per chunk.
// The prototype rows are the prefix, so the table doubles as the
// vector.Chunked view the argmin kernels scan. The stamps are the eviction
// policies' state: they ride the same copy-on-write versioning as the rows
// they describe, so a policy never scores a prototype against another
// version's clock.
type chunkTable struct {
	width int             // d+1: [x..., θ]
	coefW int             // d+2: [y, b_X..., b_Θ]
	dataC []*vector.Chunk // the chunk pointers
}

// chunkFloats is the size of one chunk allocation: prototype rows,
// coefficient rows, win counts and win stamps for chunkRows rows.
func (t *chunkTable) chunkFloats() int { return chunkRows * (t.width + t.coefW + 2) }

// row returns the k-th prototype row [x_k..., θ_k].
func (t *chunkTable) row(k int) []float64 {
	j := (k & chunkMask) * t.width
	return t.dataC[k>>chunkShift].Data[j : j+t.width]
}

// coefRow returns the k-th coefficient row [y_k, b_Xk..., b_Θk].
func (t *chunkTable) coefRow(k int) []float64 {
	j := chunkRows*t.width + (k&chunkMask)*t.coefW
	return t.dataC[k>>chunkShift].Data[j : j+t.coefW]
}

// win returns the k-th prototype's absorbed-pair count.
func (t *chunkTable) win(k int) int {
	return int(t.dataC[k>>chunkShift].Data[chunkRows*(t.width+t.coefW)+(k&chunkMask)])
}

// setWin stores the k-th prototype's absorbed-pair count.
func (t *chunkTable) setWin(k, wins int) {
	t.dataC[k>>chunkShift].Data[chunkRows*(t.width+t.coefW)+(k&chunkMask)] = float64(wins)
}

// stamp returns the training-step index at which the k-th prototype last
// absorbed a pair (its spawn step until it wins one) — the recency input of
// the eviction policies.
func (t *chunkTable) stamp(k int) int {
	return int(t.dataC[k>>chunkShift].Data[chunkRows*(t.width+t.coefW+1)+(k&chunkMask)])
}

// setStamp stores the k-th prototype's last-win step stamp. Like setWin, it
// needs the chunk already writable (every call site follows a coefForWrite
// or an explicit writableChunk).
func (t *chunkTable) setStamp(k, step int) {
	t.dataC[k>>chunkShift].Data[chunkRows*(t.width+t.coefW+1)+(k&chunkMask)] = float64(step)
}

// readEpoch is one immutable generation of the search index: either a
// uniform grid or a bulk-built k-d tree over a stale copy of the first
// builtK prototype rows. It is built on the write path — a grid usually
// merged from the last epoch's, into new memory — and never mutated, so
// the store and any number of published snapshots reference it
// concurrently without synchronization; each referencer pairs it with its
// own live chunk table and its own drift slack.
//
// A tree epoch is also the prototype block the fusion loop reads: the
// tree's leaf-ordered rows [x_k, θ_k] with the coefficient rows gathered
// beside them in the same position order (coefs), so a leaf run is
// contiguous memory holding everything Eq. 9/10 and Eq. 5/12/14 need. The
// block is a copy, so a reader may use position p for slot k only when its
// snapshot can prove slot k has not been written since the capture: either
// the snapshot is clean (no slot below builtK was written between the build
// and the publication), or the slot's copy-on-write stamp is older than
// step — the training step in progress at the capture. Every training
// write stamps its row with the step it belongs to, so a row written after
// the capture carries a stamp ≥ step. The comparison is ≥, not >: a
// winner's row write can trigger the rebuild in the middle of its own step,
// before the same step's coefficient write, and the block then holds that
// winner's pre-update coefficients under a stamp that is about to become
// step itself. (The eviction pass writes rows without raising their stamp,
// and always installs a new epoch before it returns.)
type readEpoch struct {
	builtK int
	width  int
	step   int // the store's step at the build; see above

	// slotPos maps each slot below builtK — every one of them is indexed —
	// to the position of its copy in the index's rows (grid.Points or
	// tree.Rows). A grid epoch's is the grid's own Positions, filled by the
	// merge or the build that made it. Only indexed slots pay into the
	// drift budget, by their distance from that copy — a slot of the tail is
	// scanned exactly against its live row anyway, so its moves cannot
	// invalidate any pruning bound (and must not inflate the slack or
	// trigger spurious rebuilds).
	slotPos []int32

	// grid indexes the stale rows for width ≤ storeGridMaxWidth: the same
	// clustered index.Grid the exact executor serves from, cell side 2ρ, its
	// ids the slots.
	grid *index.Grid

	// tree indexes the stale rows for wider query spaces, where the grid's
	// ring enumeration outgrows the flat scan: an implicit-layout k-d tree
	// whose exact per-node bounding boxes keep discriminating as the width
	// grows (the 1-D projection spine that used to live here concentrated
	// at d=8 and pruned weakly — see PERFORMANCE.md).
	tree *index.BulkKDTree

	// coefs holds the coefficient row of the slot at each position of
	// tree.Rows(), coefW values each (tree epochs only).
	coefs []float64
}

// stale returns the epoch's copy of slot k's row, or nil when the epoch
// does not index slot k.
func (e *readEpoch) stale(k int) []float64 {
	if k >= e.builtK {
		return nil
	}
	var rows []float64
	if e.grid != nil {
		rows = e.grid.Points()
	} else {
		rows = e.tree.Rows()
	}
	p := int(e.slotPos[k]) * e.width
	return rows[p : p+e.width]
}

const (
	// storeGridMaxWidth bounds the query-space dimensionality (d+1) for
	// which the ring-expanding grid search is profitable; above it the ring
	// enumeration outgrows the flat scan and the store uses the k-d tree
	// instead.
	storeGridMaxWidth = 4
	// storeGridMinK is the prototype count below which the flat scan beats
	// building the grid and walking its cells.
	storeGridMinK = 64
	// storeTreeMinK is the prototype count below which the plain flat scan
	// beats the k-d tree's node bookkeeping.
	storeTreeMinK = 128
)

func newProtoStore(dim int, vigilance float64) *protoStore {
	return &protoStore{
		chunkTable: chunkTable{width: dim + 1, coefW: dim + 2},
		vigilance:  vigilance,
	}
}

// liveView wraps the live chunk table for the chunk-iterating kernels (the
// prototype rows are each chunk's prefix). The view is three words —
// building one allocates nothing.
func (s *protoStore) liveView() vector.Chunked {
	return vector.NewChunked(s.width, s.k, s.dataC)
}

// writableChunk makes the chunk holding row k writable, restoring the
// copy-on-write invariant: if the chunk is referenced by a published snapshot and
// row k is visible to it (k < pubK), the chunk — prototype rows, coefficient
// rows and win counts, one buffer — is first copied afresh. Rows appended
// since the last publication are invisible to every reader and are written
// in place even inside a shared chunk. Every write to a stored row comes
// through here first, which makes it the one place that notices an epoch's
// copy of a row going stale (dirty).
func (s *protoStore) writableChunk(k int) {
	if e := s.epoch; e != nil && k < e.builtK {
		s.dirty = true
	}
	ci := k >> chunkShift
	if !s.shared[ci] || k >= s.pubK {
		return
	}
	buf := make([]float64, s.chunkFloats())
	copy(buf, s.dataC[ci].Data)
	s.dataC[ci] = &vector.Chunk{Data: buf}
	s.shared[ci] = false
}

// appendChunk grows the table by one empty chunk, allocated at full
// capacity so later appends into it never move memory under a reader.
func (s *protoStore) appendChunk() {
	s.dataC = append(s.dataC, &vector.Chunk{Data: make([]float64, s.chunkFloats())})
	s.shared = append(s.shared, false)
}

// minEpochK is the prototype count below which no epoch is built and every
// search falls back to the flat scan.
func (s *protoStore) minEpochK() int {
	if s.width <= storeGridMaxWidth {
		return storeGridMinK
	}
	return storeTreeMinK
}

// slotState is one prototype's whole writer state: what insert stores, what
// at reads back, and the form it travels in between stores (Fuse, Split,
// the eviction pass, Load).
type slotState struct {
	row, coef   []float64 // [x_k..., θ_k] and [y_k, b_Xk..., b_Θk]
	wins, stamp int
	p           []float64 // see protoStore.rls
}

// at returns slot k's state. The slices alias the store's memory: clone
// before a later write to the slot, or before the writer lock is released.
func (s *protoStore) at(k int) slotState {
	return slotState{s.row(k), s.coefRow(k), s.win(k), s.stamp(k), s.rls[k]}
}

// clone returns a deep copy.
func (e slotState) clone() slotState {
	w := len(e.row)
	vals := append(append(make([]float64, 0, w+len(e.coef)), e.row...), e.coef...)
	return slotState{vals[:w:w], vals[w:], e.wins, e.stamp, append([]float64(nil), e.p...)}
}

// appendSlot grows the slot space by one zeroed row — invisible to published
// snapshots (their k precedes it), so writing it costs no chunk copy — and
// returns its index.
func (s *protoStore) appendSlot() int {
	k := s.k
	if k>>chunkShift == len(s.dataC) {
		s.appendChunk()
	}
	s.k++
	s.rls = append(s.rls, nil)
	return k
}

// insert appends a prototype in full, copying e's rows and taking ownership
// of e.p. It is the one bulk-insertion primitive — Load, Fuse/Split and
// the eviction pass all build their stores through it — and runs no rebuild
// check: those callers install one epoch themselves after many inserts,
// instead of the O(log K) intermediate builds the per-append trigger would
// construct and discard.
func (s *protoStore) insert(e slotState) {
	k := s.appendSlot()
	copy(s.row(k), e.row)
	copy(s.coefRow(k), e.coef)
	s.setWin(k, e.wins)
	s.setStamp(k, e.stamp)
	s.rls[k] = e.p
	if theta := e.row[s.width-1]; theta > s.maxTheta {
		s.maxTheta = theta
	}
}

// spawn appends the new prototype a training step creates at q — intercept
// y_K, zero slopes, one win, stamped with the step in progress — and returns
// its slot, the last one.
func (s *protoStore) spawn(q Query, intercept float64) int {
	k := s.appendSlot()
	s.coefForWrite(k)[0] = intercept // the chunk is writable from here on
	row := s.row(k)
	copy(row, q.Center)
	row[s.width-1] = q.Theta
	s.setWin(k, 1)
	s.setStamp(k, s.step)
	if q.Theta > s.maxTheta {
		s.maxTheta = q.Theta
	}
	s.maybeRebuildEpoch()
	return k
}

// update moves the k-th prototype to to = [x..., θ] after a drift step,
// accounting the displacement against the epoch's staleness budget. This is
// the write that triggers copy-on-write: the winner row usually lives in a
// chunk shared with the last published version.
func (s *protoStore) update(k int, to []float64) {
	s.updateRow(k, to)
	s.maybeRebuildEpoch()
}

// updateRow is update without the rebuild check: the eviction pass moves
// merge survivors by more than the drift threshold routinely, and paying a
// rebuild per merged victim would turn its single end-of-pass rebuild into
// O(victims) rebuilds — the pass accounts the drift here (exactness between
// writes is still covered by the widened bounds) and installs one fresh
// epoch when it finishes.
//
// The drift a row pays is its current distance from the epoch's copy —
// displacement, not the length of the path it took — rounded up an ulp;
// maxDrift keeps the largest, a monotone upper bound like maxTheta.
func (s *protoStore) updateRow(k int, to []float64) {
	if e := s.epoch; e != nil {
		if stale := e.stale(k); stale != nil {
			move := math.Nextafter(math.Sqrt(vector.SqDistanceFlat(stale, to)), math.Inf(1))
			s.maxDrift = max(s.maxDrift, move)
			if e.grid != nil {
				s.touch(k, e.builtK)
			}
		}
	}
	s.writableChunk(k)
	copy(s.row(k), to)
	if theta := to[s.width-1]; theta > s.maxTheta {
		s.maxTheta = theta
	}
}

// touch records that indexed slot k's row was written. A winner written
// over and over between rebuilds is listed each time; once the list
// outgrows twice the epoch's slots it is sorted and its repeats dropped, so
// it stays O(builtK) however long the epoch lives.
func (s *protoStore) touch(k, builtK int) {
	s.touched = append(s.touched, int32(k))
	if len(s.touched) > 2*builtK {
		slices.Sort(s.touched)
		s.touched = slices.Compact(s.touched)
	}
}

// coefForWrite returns the k-th coefficient row for writing in place. Every
// coefficient write to a stored slot outside insert comes through here:
// writableChunk is what un-shares the chunk and what marks the epoch's copy
// of the row stale, and it must run after any rebuild the step's row write
// triggered — a rebuild clears the mark.
func (s *protoStore) coefForWrite(k int) []float64 {
	s.writableChunk(k)
	return s.coefRow(k)
}

// maybeRebuildEpoch rebuilds once the un-indexed rows — the appended tail —
// reach an eighth of the prototype set or some row's displacement from the
// epoch's copy passes a quarter of the prototype spacing. Called on the
// write path only; a rebuild installs a new immutable epoch and leaves every
// previously published one untouched.
func (s *protoStore) maybeRebuildEpoch() {
	k := s.k
	if k < s.minEpochK() {
		return
	}
	built := 0
	if s.epoch != nil {
		built = s.epoch.builtK
	}
	if (k-built)*8 >= k || s.maxDrift > s.vigilance/4 {
		s.rebuildEpoch()
	}
}

// rebuildEpoch installs a new immutable index over the current prototype
// rows (grid or k-d tree by width; a tree epoch also captures the
// coefficient rows — see readEpoch), maps every slot to its copy's position
// (slotPos), resets the drift budget, the dirty mark and the touched list,
// and re-tightens the max-θ bound exactly. A grid epoch is built from the
// last one when there is one (mergeGrid): one pass over its clustered rows
// that re-cells only the rows that changed cell or spawned, and keeps
// slotPos and the max-θ bound as it goes. Otherwise, and when a row has left
// the last grid's extent, the rows are gathered and indexed from scratch.
// Either way the epoch's own storage is contiguous (cell-clustered grid rows
// / leaf-ordered tree matrix), so searches against the stale copy keep their
// flat-scan cache behaviour, and it is new memory: snapshots still holding
// the last epoch keep it whole. Below the index size gate (a small model, or
// one a capacity shrink left small) the epoch is dropped and searches fall
// back to the exact flat scan.
func (s *protoStore) rebuildEpoch() {
	k := s.k
	w := s.width
	prev := s.epoch
	s.dirty = false
	s.maxDrift = 0
	if k < s.minEpochK() {
		s.touched = s.touched[:0]
		s.epoch = nil
		s.retightenMaxTheta()
		return
	}
	e := &readEpoch{builtK: k, width: w, step: s.step}
	if w <= storeGridMaxWidth && prev != nil && prev.grid != nil {
		e.grid = s.mergeGrid(prev)
	}
	s.touched = s.touched[:0]
	if e.grid == nil {
		s.buildEpoch(e)
	}
	if e.grid != nil {
		// The grid keeps its id → position map and its per-dimension maxima;
		// the θ column's is the max-θ bound (radii are non-negative).
		e.slotPos = e.grid.Positions()
		s.maxTheta = max(0, e.grid.Max()[w-1])
	} else {
		e.slotPos = make([]int32, k)
		for p, id := range e.tree.IDs() {
			e.slotPos[id] = int32(p)
		}
		s.retightenMaxTheta()
	}
	s.epoch = e
}

// mergeGrid builds the next grid epoch from prev's grid (index.Grid.Merge):
// the rows written since prev's build and the appended tail are placed at
// their live rows; every other row is still prev's copy. It returns nil when
// a placed row lies outside prev's extent.
func (s *protoStore) mergeGrid(prev *readEpoch) *index.Grid {
	moved := append(s.idsBuf[:0], s.touched...)
	for id := prev.builtK; id < s.k; id++ {
		moved = append(moved, int32(id))
	}
	s.idsBuf = moved
	return prev.grid.Merge(s.liveView(), nil, moved)
}

// buildEpoch indexes the rows from scratch into e: one gather of the rows,
// whose positions are the slots, serves either index.
func (s *protoStore) buildEpoch(e *readEpoch) {
	w := s.width
	stale := s.staleBuf[:0]
	for i := 0; i < s.k; i++ {
		stale = append(stale, s.row(i)...)
	}
	s.staleBuf = stale
	// The constructors cannot fail: the width is positive, the cell size was
	// validated with the config, and the copy is non-empty (k ≥ minEpochK)
	// with k×w values by construction. A failure means that invariant broke
	// — surface it instead of silently serving O(K) scans forever. Both copy
	// what they index, so the buffer is free for the next rebuild.
	var err error
	if w <= storeGridMaxWidth {
		e.grid, err = index.NewGridFlat(stale, w, 2*s.vigilance)
	} else {
		e.tree, err = index.NewBulkKDTree(stale, w)
	}
	if err != nil {
		panic(fmt.Sprintf("core: epoch index build invariant broken: %v", err))
	}
	if e.tree != nil {
		// The block's other half: each position's coefficient row, beside
		// the tree's leaf-ordered prototype rows.
		cw := s.coefW
		e.coefs = make([]float64, s.k*cw)
		for p, id := range e.tree.IDs() {
			copy(e.coefs[p*cw:(p+1)*cw], s.coefRow(int(id)))
		}
	}
}

// retightenMaxTheta recomputes the exact max over the prototype radii.
func (s *protoStore) retightenMaxTheta() {
	mt := 0.0
	w := s.width
	for i := 0; i < s.k; i++ {
		if t := s.row(i)[w-1]; t > mt {
			mt = t
		}
	}
	s.maxTheta = mt
}

// winnerOn returns the index of the prototype closest to the query-space
// point qflat = [x..., θ] among the live rows of the chunk table, and the
// squared L2 distance to it, using the epoch's index when one exists. The
// rows the epoch does not cover — the appended tail, the trailing chunks of
// the live matrix — are scanned exactly first and seed the indexed search.
// stack carries the k-d tree traversal scratch (the store's own
// buffer for the writer, the prediction scratch pool's for readers), so the
// hot path allocates nothing. All paths measure a row with the vector
// kernels' one summation order and return a true minimum, so the distance,
// and hence the vigilance test, is a function of the rows whichever path
// found the winner. Only the winner under an exact tie can differ: the grid
// and chunked scans break ties toward the lowest index, while the tree
// visits rows in leaf order. When no row is at a finite distance (the
// squared distance overflows for a far query), every row ties at +Inf and
// slot 0 wins, as on the grid.
func winnerOn(e *readEpoch, live vector.Chunked, qflat []float64, slack float64, stack *[]int32) (int, float64) {
	built := 0
	if e != nil {
		built = e.builtK
	}
	best, bestSq := vector.ArgminSqDistanceChunkedRange(live, qflat, built, -1, math.Inf(1))
	if e != nil {
		if e.grid != nil {
			best, bestSq = e.grid.NearestStale(qflat, slack, live, best, bestSq)
		} else {
			best, bestSq, *stack = e.tree.NearestStale(qflat, slack, live, best, bestSq, *stack)
		}
	}
	if best < 0 && live.Rows() > 0 {
		best, bestSq = 0, math.Inf(1)
	}
	return best, bestSq
}

// winner returns the winner over the store's live rows.
func (s *protoStore) winner(qflat []float64) (int, float64) {
	return winnerOn(s.epoch, s.liveView(), qflat, s.maxDrift, &s.kdstack)
}

// winnerQuery is the Query-typed entry point: it assembles the query-space
// point in the store's scratch row (single writer — no races) and returns
// the winner index plus the true (root) distance used by the vigilance test.
func (s *protoStore) winnerQuery(q Query) (int, float64) {
	if cap(s.qbuf) < s.width {
		s.qbuf = make([]float64, s.width)
	}
	qflat := s.qbuf[:s.width]
	copy(qflat, q.Center)
	qflat[s.width-1] = q.Theta
	k, sq := s.winner(qflat)
	return k, math.Sqrt(sq)
}

// publish builds an immutable snapshot of the serving state: the chunk
// pointer table is copied (⌈K/chunkRows⌉ slice headers — not the rows),
// every chunk is marked shared so the next write to a published row copies
// its chunk first, the current epoch is shared by pointer, and the
// drift/max-θ budgets and the clean mark are captured as scalars. The
// returned snapshot never changes, so readers use it without any
// synchronization beyond the atomic pointer load that handed it out.
func (s *protoStore) publish(dim, steps int, converged bool, lastGamma float64, quietSteps int) *storeSnapshot {
	dataC := make([]*vector.Chunk, len(s.dataC))
	copy(dataC, s.dataC)
	for i := range s.shared {
		s.shared[i] = true
	}
	s.pubK = s.k
	return &storeSnapshot{
		dim:        dim,
		chunkTable: chunkTable{width: s.width, coefW: s.coefW, dataC: dataC},
		k:          s.k,
		epoch:      s.epoch,
		clean:      !s.dirty,
		slack:      s.maxDrift,
		maxTheta:   s.maxTheta,
		steps:      steps,
		converged:  converged,
		lastGamma:  lastGamma,
		quietSteps: quietSteps,
	}
}
