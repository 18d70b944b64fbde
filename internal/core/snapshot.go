package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"llmq/internal/index"
	"llmq/internal/vector"
)

// storeSnapshot is one immutable published version of the model's serving
// state: the chunk-pointer tables of the prototype matrix, the LLM
// coefficient matrix and the win counts, and the shared read epoch with its
// drift slack and max-θ bound. A snapshot is created by protoStore.publish
// under the writer lock, installed with one atomic pointer store, and then
// never mutated — readers that loaded it keep a consistent version for as
// long as they hold the pointer, while training publishes newer versions
// alongside it. Chunks are shared by pointer across versions: the writer
// copies a chunk before its first post-publication write to a row this
// snapshot can see (rows ≥ k were appended later and are never read here),
// so the rows behind the table are frozen even though most of them are the
// same memory every other version reads. This is what makes every prediction
// method lock-free, what allows serving to pin one model version across a
// whole batch (View), and what makes publishing a version O(touched chunks)
// instead of O(K).
type storeSnapshot struct {
	chunkTable // the chunk-pointer table and its layout decoders

	dim int // input dimensionality d
	k   int // prototypes K, in slots 0..k−1

	epoch *readEpoch // shared immutable index (nil below the size gates)
	// clean: no slot below the epoch's builtK was written between the
	// epoch's build and this publication, so every row of the epoch's block
	// is this version's row (see readEpoch for what an unclean reader checks).
	clean    bool
	slack    float64 // max prototype displacement vs the epoch's stale rows
	maxTheta float64 // upper bound on every θ_k (see store.go)

	steps      int
	converged  bool
	lastGamma  float64
	quietSteps int // consecutive steps with Γ ≤ γ, persisted by Save
}

// chunked wraps the snapshot's chunk table for the chunk-iterating kernels
// (the prototype rows are each chunk's prefix); the view is three words, so
// building one allocates nothing.
func (s *storeSnapshot) chunked() vector.Chunked {
	return vector.NewChunked(s.width, s.k, s.dataC)
}

// proto is one prototype as the fusion reads it — row [x_k, θ_k] and
// coefficient row [y_k, b_Xk, b_Θk] — from the snapshot's live chunks
// (storeSnapshot.proto) or from the epoch's block (storeSnapshot.member).
type proto struct{ row, coef []float64 }

// proto returns slot k's live rows.
func (s *storeSnapshot) proto(k int) proto { return proto{s.row(k), s.coefRow(k)} }

// eval evaluates f_k(x, θ) (Eq. 5 / Eq. 12) from the flat rows: the one
// evaluation of the mapping — the training step's residual calls it too.
func (p proto) eval(center []float64, theta float64) float64 {
	d := len(p.row) - 1
	c := p.coef
	v := c[0] + c[d+1]*(theta-p.row[d])
	for i := 0; i < d; i++ {
		v += c[1+i] * (center[i] - p.row[i])
	}
	return v
}

// evalAtPrototypeRadius evaluates f_k(x, θ_k) — the LLM restricted to its
// own radius, the Eq. 14 term (Theorem 3).
func (p proto) evalAtPrototypeRadius(x []float64) float64 {
	d := len(p.row) - 1
	v := p.coef[0]
	for i := 0; i < d; i++ {
		v += p.coef[1+i] * (x[i] - p.row[i])
	}
	return v
}

// dataModel converts the LLM into the explicit local linear regression of
// the data function g over D_k (Theorem 3).
func (p proto) dataModel() LocalLinear {
	d := len(p.row) - 1
	var dot float64
	for i := 0; i < d; i++ {
		dot += p.coef[1+i] * p.row[i]
	}
	return LocalLinear{
		Intercept: p.coef[0] - dot,
		Slope:     slices.Clone(p.coef[1 : 1+d]),
		Center:    slices.Clone(p.row[:d]),
		Theta:     p.row[d],
	}
}

// query returns the prototype as a Query value w_k = [x_k, θ_k].
func (p proto) query() Query {
	d := len(p.row) - 1
	return Query{Center: slices.Clone(p.row[:d]), Theta: p.row[d]}
}

// predictScratch carries the per-call scratch buffers of the prediction hot
// path: the assembled query-space point, the grid's candidate positions, the
// k-d tree's traversal stack and leaf runs, the block pass's hits, the
// slot-ordered reduction, and the overlap set's result slices — idx and
// weights per member, and pos, the block position of each member read from
// the epoch's block (−1, or past the end of pos, for the live rows).
// Instances are pooled so a steady-state prediction performs no heap
// allocation at all; the buffers only grow, and the pool survives snapshot
// publication, so a training stream does not cool the serving path down.
type predictScratch struct {
	qflat   []float64
	cand    []int32
	kdstack []int32
	runs    []index.Span
	hits    []int32
	sqs     []float64
	order   slotOrder
	idx     []int
	weights []float64
	pos     []int32
}

func (sc *predictScratch) qvec(w int) []float64 {
	if cap(sc.qflat) < w {
		sc.qflat = make([]float64, w)
	}
	return sc.qflat[:w]
}

// slotOrder puts verified overlap members back into ascending slot order —
// the order overlapLinearRaw accumulates in, which every float of an answer
// depends on — whatever order the index produced them in. Members park in
// arrival order while a bitset over the epoch's slots (with a one-bit-per-
// word summary above it) records which slots they are; a member's place in
// the output is the number of marked slots below its own — the rank of its
// word plus a popcount inside it — so drain is a scatter, not a sort: O(1)
// per mark, O(members + slots/4096) per drain, nothing per slot larger
// than a bit. This is the one place the accumulation order is decided: a
// canonical order that is a function of model state (the ROADMAP item
// "make answers a function of state") swaps the key and nothing else.
type slotOrder struct {
	words   []uint64 // bit k&63 of words[k>>6]: slot k is a member
	summary []uint64 // bit w&63 of summary[w>>6]: words[w] is non-zero
	rank    []int32  // per non-zero word: members in lower words (drain)
	members []slotMember
}

// slotMember is one marked member: slot, raw overlap degree, and where its
// rows are (a block position, or −1 for the live rows).
type slotMember struct {
	deg  float64
	slot int32
	pos  int32
}

// grow sizes the bitsets for slots [0, n); they are all-clear between
// statements, so growing needs no copy.
func (o *slotOrder) grow(n int) {
	if words := (n + 63) >> 6; len(o.words) < words {
		o.words = make([]uint64, words)
		o.rank = make([]int32, words)
		o.summary = make([]uint64, (words+63)>>6)
	}
}

// mark records slot as a member; a slot is marked at most once per
// statement.
func (o *slotOrder) mark(slot int, pos int32, deg float64) {
	o.members = append(o.members, slotMember{deg: deg, slot: int32(slot), pos: pos})
	w := slot >> 6
	o.words[w] |= 1 << (slot & 63)
	o.summary[w>>6] |= 1 << (w & 63)
}

// drain appends the marked members in ascending slot order, adding their
// degrees into total in that order, and clears the marks.
func (o *slotOrder) drain(idx []int, weights []float64, pos []int32) ([]int, []float64, []int32, float64) {
	n := 0
	for si, sw := range o.summary {
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 + bits.TrailingZeros64(sw)
			o.rank[w] = int32(n)
			n += bits.OnesCount64(o.words[w])
		}
		o.summary[si] = 0
	}
	base := len(idx)
	idx = slices.Grow(idx, n)[:base+n]
	weights = slices.Grow(weights, n)[:base+n]
	pos = slices.Grow(pos, n)[:base+n]
	for _, m := range o.members {
		w, bit := int(m.slot)>>6, uint64(1)<<(m.slot&63)
		at := base + int(o.rank[w]) + bits.OnesCount64(o.words[w]&(bit-1))
		idx[at], weights[at], pos[at] = int(m.slot), m.deg, m.pos
	}
	for _, m := range o.members {
		o.words[m.slot>>6] = 0
	}
	o.members = o.members[:0]
	var total float64
	for _, deg := range weights[base:] {
		total += deg
	}
	return idx, weights, pos, total
}

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// winnerQuery returns the snapshot's winner (Eq. 5) for q and the true
// (root) query-space distance.
func (s *storeSnapshot) winnerQuery(q Query, sc *predictScratch) (int, float64) {
	qflat := sc.qvec(s.width)
	copy(qflat, q.Center)
	qflat[s.width-1] = q.Theta
	k, sq := winnerOn(s.epoch, s.chunked(), qflat, s.slack, &sc.kdstack)
	return k, math.Sqrt(sq)
}

// rowOverlapDegree verifies one prototype row [x_k, θ_k] against q — the
// single copy of the Eq. (9)/(10) membership-and-weight arithmetic, shared
// by the linear scan, the block pass and the grid sweep so the paths cannot
// diverge — and returns its raw overlap degree, zero for a non-member.
//
// The membership test ‖x − x_k‖ ≤ θ + θ_k is evaluated with the partial-
// distance kernel: the radii are known before the distance, so a row whose
// partial sum of squares already exceeds (θ + θ_k)² is abandoned mid-row.
// sq ≤ r² is equivalent to dist ≤ r (both sides non-negative, √ monotone),
// and a row exactly on the boundary has overlap degree 0 either way, so the
// cutoff never changes the resulting set — it only skips arithmetic (and
// the square root) for rows that cannot be members.
func rowOverlapDegree(q Query, row []float64) float64 {
	d := len(row) - 1
	r := q.Theta + row[d]
	sq, within := vector.SqDistanceWithin(q.Center, row[:d], r*r)
	if !within {
		return 0
	}
	return overlapDegree(math.Sqrt(sq), q.Theta, row[d])
}

// overlapAccumulate verifies slot id on its live row and appends it to the
// running overlap set when its degree is positive.
func (s *storeSnapshot) overlapAccumulate(q Query, id int, idx []int, weights []float64, total float64) ([]int, []float64, float64) {
	if deg := rowOverlapDegree(q, s.row(id)); deg > 0 {
		idx = append(idx, id)
		weights = append(weights, deg)
		total += deg
	}
	return idx, weights, total
}

// overlapLinearRaw builds the overlap set W(q) (Eq. 10) with one scan over
// all prototype slots: the exact reference path, used below the index size
// gates and whenever the radius query cannot prune. The weights are the raw (pre-normalization) overlap degrees, accumulated in
// ascending slot order into total — the caller normalizes (overlapSet), or
// ships the raw degrees to a scatter/gather merger that re-runs the same
// accumulation across shards (View.ScatterScan). The returned slices live
// in the scratch and are valid until the next use of it.
func (s *storeSnapshot) overlapLinearRaw(q Query, sc *predictScratch) (idx []int, weights []float64, total float64) {
	idx, weights = sc.idx[:0], sc.weights[:0]
	for k := 0; k < s.k; k++ {
		idx, weights, total = s.overlapAccumulate(q, k, idx, weights, total)
	}
	sc.idx, sc.weights, sc.pos = idx, weights, sc.pos[:0]
	return idx, weights, total
}

// overlapEps widens the radius-query bound by a relative margin so the
// float rounding of the bound arithmetic (one hypot and one multiply) can
// never exclude a prototype exactly on the overlap boundary. Rows that
// survive a widened bound are verified with the same rowOverlapDegree
// arithmetic as the linear scan, so the widening only ever adds rows to
// test — the resulting set and weights are bit-identical to
// overlapLinearRaw's.
const overlapEps = 1e-12

// overlapSet builds W(q) and normalizes the weights to sum to one — the
// form every prediction method consumes. The membership sweep is
// overlapRaw's; the division happens here, last, so a scatter/gather tier
// that needs the raw degrees (ScatterScan) shares every preceding
// instruction with the local path.
func (s *storeSnapshot) overlapSet(q Query, sc *predictScratch) (idx []int, weights []float64) {
	idx, weights, total := s.overlapRaw(q, sc)
	if total > 0 {
		for i := range weights {
			weights[i] /= total
		}
	}
	return idx, weights
}

// overlapRaw builds W(q) through the epoch instead of a full scan, returning
// raw (pre-normalization) degrees like overlapLinearRaw. The overlap test
// ‖x − x_k‖ ≤ θ + θ_k becomes a query-space ball once θ_k is bounded by
// maxTheta: every overlapping prototype lies within R = θ + maxTheta of x,
// hence within rq = √(R² + max(θ, maxTheta)²) of [x, θ] in the query space,
// and within rq + slack of its own stale epoch position. A tree epoch
// prunes its nodes with that ball and tests the surviving leaf runs of its
// block in one pass (blockPass); a grid epoch scans the cells covering the
// ball (Grid.Scan over the stale rows) and verifies each candidate on its
// live row. Either way the members go through the one slot-ordered
// reduction, so indices, weights and the running total match
// overlapLinearRaw bit for bit. Rows appended after the epoch build (the
// tail) sit above every epoch slot and are scanned last.
func (s *storeSnapshot) overlapRaw(q Query, sc *predictScratch) (idx []int, weights []float64, total float64) {
	e := s.epoch
	if e == nil {
		return s.overlapLinearRaw(q, sc)
	}
	R := q.Theta + s.maxTheta
	T := q.Theta
	if s.maxTheta > T {
		T = s.maxTheta
	}
	rq := math.Sqrt(R*R + T*T)
	rq += rq*overlapEps + s.slack
	qflat := sc.qvec(s.width)
	copy(qflat, q.Center)
	qflat[s.width-1] = q.Theta
	order := &sc.order
	order.grow(e.builtK)
	if e.grid != nil {
		var err error
		sc.cand, err = e.grid.Scan(context.Background(), sc.cand[:0], qflat, rq, 2)
		if err != nil || len(sc.cand)+s.k-e.builtK >= s.k/2 {
			// The ball covers most of the prototype set (a broad query, or
			// cell boxes much wider than the ball): the straight scan is
			// cheaper than chasing the candidates row by row and returns
			// the identical result.
			return s.overlapLinearRaw(q, sc)
		}
		ids := e.grid.IDs()
		for _, p := range sc.cand {
			s.markLive(q, int(ids[p]), order)
		}
	} else {
		sc.runs, sc.kdstack = e.tree.LeafRuns(qflat, rq, sc.runs[:0], sc.kdstack)
		s.blockPass(q, sc)
	}
	idx, weights, sc.pos, total = order.drain(sc.idx[:0], sc.weights[:0], sc.pos[:0])
	for id := e.builtK; id < s.k; id++ {
		idx, weights, total = s.overlapAccumulate(q, id, idx, weights, total)
	}
	sc.idx, sc.weights = idx, weights
	return idx, weights, total
}

// markLive verifies slot id on its live row and marks it when it overlaps q.
func (s *storeSnapshot) markLive(q Query, id int, order *slotOrder) {
	if deg := rowOverlapDegree(q, s.row(id)); deg > 0 {
		order.mark(id, -1, deg)
	}
}

// blockPass tests every row of the leaf runs in sc.runs against q and marks
// the members, reading the tree epoch's block — contiguous [x_k, θ_k] rows
// in leaf order — instead of the chunked live rows. On a clean snapshot the
// block rows are the live rows and the kernel's test is the exact one.
// Otherwise a row may have moved since its capture, by at most slack in x
// and in θ: the kernel tests against the radius widened by 2·slack (a
// superset of the live members, as the node bound is) and each survivor is
// verified exactly — on its live row when its stamp says it was written
// since the capture, on the block row (which then is the live row) when not.
func (s *storeSnapshot) blockPass(q Query, sc *predictScratch) {
	e := s.epoch
	d, w := s.dim, s.width
	rows, ids := e.tree.Rows(), e.tree.IDs()
	r := q.Theta
	if !s.clean {
		r += 2 * s.slack
		r += (r + s.maxTheta) * overlapEps
	}
	for _, run := range sc.runs {
		sc.hits, sc.sqs = vector.AppendBallsTouching(rows[int(run.Start)*w:int(run.End)*w], q.Center, r, run.Start, sc.hits[:0], sc.sqs[:0])
		for i, p := range sc.hits {
			k, thetaK := int(ids[p]), rows[int(p)*w+d]
			var deg float64
			if !s.clean && s.stamp(k) >= e.step {
				deg, p = rowOverlapDegree(q, s.row(k)), -1
			} else if rk := q.Theta + thetaK; sc.sqs[i] <= rk*rk {
				deg = overlapDegree(math.Sqrt(sc.sqs[i]), q.Theta, thetaK)
			}
			if deg > 0 {
				sc.order.mark(k, p, deg)
			}
		}
	}
}

// member returns the i-th member of the overlap set the scratch holds: from
// the epoch's block when the pass proved its copy current, else live.
func (s *storeSnapshot) member(sc *predictScratch, i int) proto {
	if i < len(sc.pos) && sc.pos[i] >= 0 {
		p, e := int(sc.pos[i]), s.epoch
		return proto{e.tree.Rows()[p*s.width : (p+1)*s.width], e.coefs[p*s.coefW : (p+1)*s.coefW]}
	}
	return s.proto(sc.idx[i])
}

// View is an immutable, lock-free view of the model at one published
// training version. Obtain one with Model.View; every method answers from
// that version no matter how much training happens afterwards, so a batch
// of predictions pinned to one View is mutually consistent — the
// zero-downtime model-swap primitive: serve traffic from a pinned View,
// retrain or Load in the background, and re-pin when ready. The zero value
// is not valid; Views are cheap (one pointer) and safe for concurrent use.
type View struct {
	s *storeSnapshot
}

// K returns the number of prototypes/LLMs in this version.
func (v View) K() int { return v.s.k }

// Steps returns how many training pairs this version had consumed.
func (v View) Steps() int { return v.s.steps }

// Converged reports whether the termination criterion had fired.
func (v View) Converged() bool { return v.s.converged }

func (v View) checkQuery(q Query) error {
	if v.s.k == 0 {
		return ErrNotTrained
	}
	if q.Dim() != v.s.dim {
		return fmt.Errorf("%w: query dim %d, model dim %d", ErrDimension, q.Dim(), v.s.dim)
	}
	return nil
}

// Winner returns the slot id of the prototype closest to q in the query
// space (the winner of Eq. 5) and the query-space distance to it, a slot in
// [0, K).
func (v View) Winner(q Query) (int, float64, error) {
	if err := v.checkQuery(q); err != nil {
		return 0, 0, err
	}
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	k, dist := v.s.winnerQuery(q, sc)
	return k, dist, nil
}

// PredictMean answers a Q1 mean-value query (Algorithm 2): the predicted
// average of the output attribute over D(x, θ), computed purely from the
// trained LLMs without data access.
func (v View) PredictMean(q Query) (float64, error) {
	if err := v.checkQuery(q); err != nil {
		return 0, err
	}
	s := v.s
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	idx, weights := s.overlapSet(q, sc)
	if len(idx) == 0 {
		// Extrapolate from the closest prototype.
		w, _ := s.winnerQuery(q, sc)
		return s.proto(w).eval(q.Center, q.Theta), nil
	}
	var yhat float64
	for i := range idx {
		yhat += weights[i] * s.member(sc, i).eval(q.Center, q.Theta)
	}
	return yhat, nil
}

// Regression answers a Q2 linear-regression query (Algorithm 3): the list S
// of local linear models that approximate the data function g over D(x, θ).
// Overlapping prototypes contribute one model each; when no prototype
// overlaps, the closest prototype's model is returned by extrapolation
// (Case 3).
func (v View) Regression(q Query) ([]LocalLinear, error) {
	if err := v.checkQuery(q); err != nil {
		return nil, err
	}
	s := v.s
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	idx, weights := s.overlapSet(q, sc)
	if len(idx) == 0 {
		w, _ := s.winnerQuery(q, sc)
		model := s.proto(w).dataModel()
		model.Weight = 0
		return []LocalLinear{model}, nil
	}
	out := make([]LocalLinear, 0, len(idx))
	for i := range idx {
		model := s.member(sc, i).dataModel()
		model.Weight = weights[i]
		out = append(out, model)
	}
	return out, nil
}

// PredictValue predicts the data value û ≈ g(x) for a point x inside the
// subspace addressed by the query q = [x0, θ] (Eq. 14): the overlap-weighted
// fusion of the neighbouring LLMs evaluated at their own prototype radii.
func (v View) PredictValue(q Query, x []float64) (float64, error) {
	if v.s.k == 0 {
		return 0, ErrNotTrained
	}
	if q.Dim() != v.s.dim || len(x) != v.s.dim {
		return 0, fmt.Errorf("%w: query dim %d, point dim %d, model dim %d", ErrDimension, q.Dim(), len(x), v.s.dim)
	}
	s := v.s
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	idx, weights := s.overlapSet(q, sc)
	if len(idx) == 0 {
		w, _ := s.winnerQuery(q, sc)
		return s.proto(w).evalAtPrototypeRadius(x), nil
	}
	var uhat float64
	for i := range idx {
		uhat += weights[i] * s.member(sc, i).evalAtPrototypeRadius(x)
	}
	return uhat, nil
}

// Neighborhood exposes the overlap set W(q) for diagnostics: the prototype
// queries that overlap q and their normalized weights.
func (v View) Neighborhood(q Query) ([]Query, []float64, error) {
	if err := v.checkQuery(q); err != nil {
		return nil, nil, err
	}
	s := v.s
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	idx, weights := s.overlapSet(q, sc)
	qs := make([]Query, len(idx))
	for i := range idx {
		qs[i] = s.member(sc, i).query()
	}
	return qs, append([]float64(nil), weights...), nil
}
