package core

import (
	"encoding/json"
	"fmt"
	"math"
)

// The scatter surface: what a sharded deployment needs from one shard so a
// router can merge N partial answers into the answer the union model — a
// single Model holding every shard's live prototypes concatenated in shard
// order — would give, bit for bit.
//
// The fusion arithmetic of Eq. (11)/(13)/(14) is a weighted sum whose
// weights are the overlap degrees normalized by their running total, and
// every accumulation in the local path runs in ascending slot order. A
// shard therefore ships its contributions RAW — per-prototype degree and
// the per-prototype evaluations, in slot order, without normalizing — and
// the merger re-runs the identical loop over the concatenation: sum the
// degrees shard-major into one total, divide, fuse. Same values, same
// operation order, same floats. The empty-overlap extrapolation case ships
// each shard's winner (closest prototype) the same way: the merger takes
// the globally closest one and uses its already-evaluated answer.

// ScatterContribution is one prototype's raw share of a scattered query:
// its pre-normalization overlap degree (Eq. 9) and its local evaluations,
// exactly the terms the single-model fusion loop would have produced for
// this prototype.
type ScatterContribution struct {
	// Degree is the raw overlap degree δ(q, w_k) — NOT normalized; the
	// merger divides by the shard-major running total.
	Degree float64 `json:"degree"`
	// Mean is f_k(x, θ) — the prototype's Q1 term (Eq. 12).
	Mean float64 `json:"mean"`
	// Value is f_k(x_at, θ_k), the prototype's value-prediction term
	// (Eq. 14); only meaningful when the scan was given an At point.
	Value float64 `json:"value,omitempty"`
	// Model is the prototype's explicit local linear model (Theorem 3),
	// with Weight left zero; only populated when the scan asked for models.
	Model *LocalLinear `json:"model,omitempty"`
}

// ScatterResult is one shard's partial answer to a scattered query. It is
// also the /shard/scan wire body; WinnerDist's +Inf sentinel (no winner
// computed) cannot be JSON-encoded, so the custom marshaling below carries
// it as an absent field.
type ScatterResult struct {
	// Live is the shard's live prototype count; a shard with none
	// contributes nothing and is skipped by the merger.
	Live int `json:"live"`
	// Contribs holds the overlapping prototypes' raw terms in ascending
	// slot order — the order the union model's own sweep would visit them.
	Contribs []ScatterContribution `json:"contribs,omitempty"`
	// WinnerDist is the query-space distance to the shard's closest
	// prototype, and the Winner* fields its evaluations — the Case-3
	// extrapolation terms, only computed when the shard's own overlap set
	// came up empty (+Inf distance otherwise, and on an empty shard).
	WinnerDist  float64      `json:"winner_dist"`
	WinnerMean  float64      `json:"winner_mean,omitempty"`
	WinnerValue float64      `json:"winner_value,omitempty"`
	WinnerModel *LocalLinear `json:"winner_model,omitempty"`
	// MaxTheta is the shard's current upper bound on its prototype radii —
	// the routing slack a front-end must assume for this shard. It rides
	// every scan so a remote router's cached bound heals even if a train
	// response was lost.
	MaxTheta float64 `json:"max_theta"`
}

// scatterResultJSON is ScatterResult's wire shape: WinnerDist rides as a
// pointer so the +Inf "no winner" sentinel round-trips as absence.
type scatterResultJSON struct {
	Live        int                   `json:"live"`
	Contribs    []ScatterContribution `json:"contribs,omitempty"`
	WinnerDist  *float64              `json:"winner_dist,omitempty"`
	WinnerMean  float64               `json:"winner_mean,omitempty"`
	WinnerValue float64               `json:"winner_value,omitempty"`
	WinnerModel *LocalLinear          `json:"winner_model,omitempty"`
	MaxTheta    float64               `json:"max_theta"`
}

// MarshalJSON encodes the result with the +Inf winner distance omitted.
func (r ScatterResult) MarshalJSON() ([]byte, error) {
	doc := scatterResultJSON{
		Live:        r.Live,
		Contribs:    r.Contribs,
		WinnerMean:  r.WinnerMean,
		WinnerValue: r.WinnerValue,
		WinnerModel: r.WinnerModel,
		MaxTheta:    r.MaxTheta,
	}
	if !math.IsInf(r.WinnerDist, 1) {
		doc.WinnerDist = &r.WinnerDist
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the wire shape, restoring the +Inf sentinel.
func (r *ScatterResult) UnmarshalJSON(data []byte) error {
	var doc scatterResultJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*r = ScatterResult{
		Live:        doc.Live,
		Contribs:    doc.Contribs,
		WinnerDist:  math.Inf(1),
		WinnerMean:  doc.WinnerMean,
		WinnerValue: doc.WinnerValue,
		WinnerModel: doc.WinnerModel,
		MaxTheta:    doc.MaxTheta,
	}
	if doc.WinnerDist != nil {
		r.WinnerDist = *doc.WinnerDist
	}
	return nil
}

// Dim returns the model's input dimensionality d for this version, or 0 for
// a version that has never seen a prototype (an untrained model's dim is a
// config property; the snapshot only learns it with its first row).
func (v View) Dim() int { return v.s.dim }

// MaxTheta returns this version's upper bound on every live prototype
// radius θ_k. It is the per-shard term of the scatter routing test: a
// prototype of this shard can overlap a query q only if the shard's region
// is within q.Theta + MaxTheta of the query centre. The bound is monotone
// between epoch rebuilds and exact right after one, so it may be loose —
// which costs a wasted scatter, never a missed prototype.
func (v View) MaxTheta() float64 { return v.s.maxTheta }

// ScatterScan answers a query with this shard's raw fusion terms instead of
// a finished prediction: the overlapping prototypes' unnormalized degrees
// and evaluations in slot order, plus — when the local overlap is empty —
// the closest prototype's extrapolation terms. at, when non-nil, is the
// data point of a value-prediction query (Eq. 14) and must have the model's
// dimensionality; needModels asks for the explicit local linear models
// (Q2). An empty shard returns Live 0 and no terms, with no error — the
// union may still answer from its siblings.
func (v View) ScatterScan(q Query, at []float64, needModels bool) (ScatterResult, error) {
	s := v.s
	res := ScatterResult{Live: s.k, WinnerDist: math.Inf(1), MaxTheta: s.maxTheta}
	if s.k == 0 {
		return res, nil
	}
	if q.Dim() != s.dim {
		return res, fmt.Errorf("%w: query dim %d, model dim %d", ErrDimension, q.Dim(), s.dim)
	}
	if at != nil && len(at) != s.dim {
		return res, fmt.Errorf("%w: point dim %d, model dim %d", ErrDimension, len(at), s.dim)
	}
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	idx, degrees, _ := s.overlapRaw(q, sc)
	if len(idx) == 0 {
		w, dist := s.winnerQuery(q, sc)
		p := s.proto(w)
		res.WinnerDist = dist
		res.WinnerMean = p.eval(q.Center, q.Theta)
		if at != nil {
			res.WinnerValue = p.evalAtPrototypeRadius(at)
		}
		if needModels {
			m := p.dataModel()
			res.WinnerModel = &m
		}
		return res, nil
	}
	res.Contribs = make([]ScatterContribution, len(idx))
	for i := range idx {
		p := s.member(sc, i)
		c := ScatterContribution{Degree: degrees[i], Mean: p.eval(q.Center, q.Theta)}
		if at != nil {
			c.Value = p.evalAtPrototypeRadius(at)
		}
		if needModels {
			m := p.dataModel()
			c.Model = &m
		}
		res.Contribs[i] = c
	}
	return res, nil
}
