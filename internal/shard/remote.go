package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"

	"llmq/internal/core"
)

// The shard wire protocol, served by every model-backed llmq server:
//
//	POST /shard/scan   ScanRequest → core.ScatterResult
//	POST /shard/train  TrainShardRequest → TrainShardResponse
//	GET  /shard/meta   → Meta
//
// Scans are read-only and may be answered by a follower replica; training
// must go to the shard's primary. float64 values survive the JSON round
// trip exactly (Go encodes the shortest representation that parses back to
// the same bits), so remote merging stays bit-identical to local merging.
const (
	PathScan  = "/shard/scan"
	PathMeta  = "/shard/meta"
	PathTrain = "/shard/train"
)

// ScanRequest is the body of POST /shard/scan.
type ScanRequest struct {
	Center []float64 `json:"center"`
	Theta  float64   `json:"theta"`
	// At, when present, asks for value-prediction terms at this data point.
	At []float64 `json:"at,omitempty"`
	// Models asks for the explicit local linear models (Q2 answers).
	Models bool `json:"models,omitempty"`
}

// WirePair is one training pair on the shard protocol.
type WirePair struct {
	Center []float64 `json:"center"`
	Theta  float64   `json:"theta"`
	Answer float64   `json:"answer"`
}

// TrainShardRequest is the body of POST /shard/train.
type TrainShardRequest struct {
	Pairs []WirePair `json:"pairs"`
}

// TrainShardResponse is the body returned by POST /shard/train: the train
// outcome plus the shard's routing bound, so the router's cached bound
// follows the prototypes it just created.
type TrainShardResponse struct {
	TrainStats
	MaxTheta float64 `json:"max_theta"`
}

// Remote is a shard reached over HTTP: a primary (the only endpoint that
// trains) and optionally follower replicas, across which read scans are
// spread round-robin. The routing bound MaxTheta is cached grow-only: it
// is primed from /shard/meta, grown by every train and scan response, and
// never shrinks while the router runs — a stale-loose bound costs a wasted
// scatter, never a missed prototype.
type Remote struct {
	urls   []string // primary first
	client *http.Client

	next     atomic.Uint64 // round-robin cursor over urls for scans
	maxTheta atomic.Uint64 // float64 bits, grow-only

	dim       atomic.Int64
	live      atomic.Int64
	steps     atomic.Int64
	converged atomic.Bool
	durable   atomic.Bool
}

// NewRemote builds a remote shard backend over the primary's base URL and
// any follower base URLs. client may be nil for http.DefaultClient. The
// backend is not routable until Prime succeeds.
func NewRemote(primary string, followers []string, client *http.Client) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{urls: append([]string{primary}, followers...), client: client}
}

// Prime fetches the shard's meta from its primary and seeds the routing
// bound. wantDim guards against wiring a shard of the wrong
// dimensionality into a router; pass 0 to accept any (an empty durable
// shard still knows its configured dim, but a fresh in-memory one may
// report 0 until trained).
func (r *Remote) Prime(ctx context.Context, wantDim int) error {
	var m Meta
	if err := r.do(ctx, r.urls[0], http.MethodGet, PathMeta, nil, &m); err != nil {
		return fmt.Errorf("shard: prime %s: %w", r.urls[0], err)
	}
	if wantDim != 0 && m.Dim != 0 && m.Dim != wantDim {
		return fmt.Errorf("%w: shard %s has dim %d, router expects %d", core.ErrDimension, r.urls[0], m.Dim, wantDim)
	}
	r.dim.Store(int64(m.Dim))
	r.live.Store(int64(m.Live))
	r.steps.Store(int64(m.Steps))
	r.converged.Store(m.Converged)
	r.durable.Store(m.Durable)
	r.growTheta(m.MaxTheta)
	return nil
}

// growTheta raises the cached routing bound, never lowering it.
func (r *Remote) growTheta(v float64) {
	for {
		old := r.maxTheta.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if r.maxTheta.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// MaxTheta implements Backend from the grow-only cache.
func (r *Remote) MaxTheta() float64 { return math.Float64frombits(r.maxTheta.Load()) }

// Scan implements Backend: the request is spread round-robin across the
// primary and its followers, falling over to the next replica on a
// transport failure or on a result no shard produces (see checkScan).
// Every accepted response refreshes the routing bound.
func (r *Remote) Scan(ctx context.Context, q core.Query, at []float64, needModels bool) (core.ScatterResult, error) {
	req := ScanRequest{Center: q.Center, Theta: q.Theta, At: at, Models: needModels}
	var res core.ScatterResult
	start := r.next.Add(1)
	var errs []error
	for i := 0; i < len(r.urls); i++ {
		url := r.urls[(start+uint64(i))%uint64(len(r.urls))]
		err := r.do(ctx, url, http.MethodPost, PathScan, req, &res)
		if err == nil {
			err = checkScan(res, q.Dim(), needModels)
		}
		if err == nil {
			r.live.Store(int64(res.Live))
			r.growTheta(res.MaxTheta)
			return res, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", url, err))
		if ctx.Err() != nil {
			break
		}
	}
	return core.ScatterResult{}, errors.Join(errs...)
}

// checkScan refuses a decoded scan result that a shard cannot produce for
// a query of dimension dim, so a malformed body fails the scatter instead
// of the gather: contributions from a shard with no live prototypes, a
// degree that is not positive (the fusion weights divide by their sum), a
// missing model that was asked for, or a model of the wrong dimension.
func checkScan(res core.ScatterResult, dim int, needModels bool) error {
	if len(res.Contribs) > 0 && res.Live <= 0 {
		return fmt.Errorf("shard: scan result has %d contributions and %d live prototypes", len(res.Contribs), res.Live)
	}
	for i, c := range res.Contribs {
		if !(c.Degree > 0) {
			return fmt.Errorf("shard: scan contribution %d has degree %v", i, c.Degree)
		}
		if err := checkModel(c.Model, dim, needModels); err != nil {
			return fmt.Errorf("shard: scan contribution %d: %w", i, err)
		}
	}
	if err := checkModel(res.WinnerModel, dim, needModels && !math.IsInf(res.WinnerDist, 1)); err != nil {
		return fmt.Errorf("shard: scan winner: %w", err)
	}
	return nil
}

// checkModel refuses a missing model when one is required and a present
// one whose slope or centre does not have dim entries.
func checkModel(m *core.LocalLinear, dim int, required bool) error {
	switch {
	case m == nil && required:
		return errors.New("model missing")
	case m != nil && (len(m.Slope) != dim || len(m.Center) != dim):
		return fmt.Errorf("model has %d slopes and %d centre coordinates, want %d", len(m.Slope), len(m.Center), dim)
	}
	return nil
}

// Train implements Backend against the primary only — follower state is
// defined as "exactly what the primary shipped".
func (r *Remote) Train(ctx context.Context, pairs []core.TrainingPair) (TrainStats, error) {
	req := TrainShardRequest{Pairs: make([]WirePair, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = WirePair{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer}
	}
	var res TrainShardResponse
	if err := r.do(ctx, r.urls[0], http.MethodPost, PathTrain, req, &res); err != nil {
		return TrainStats{}, err
	}
	r.live.Store(int64(res.K))
	r.steps.Store(int64(res.Steps))
	r.converged.Store(res.Converged)
	r.growTheta(res.MaxTheta)
	return res.TrainStats, nil
}

// Stats implements Backend from the cached view — no round trip. The cache
// follows train and scan responses; Prime refreshes it authoritatively.
func (r *Remote) Stats() Meta {
	return Meta{
		Dim:       int(r.dim.Load()),
		Live:      int(r.live.Load()),
		Steps:     int(r.steps.Load()),
		Converged: r.converged.Load(),
		MaxTheta:  r.MaxTheta(),
		Durable:   r.durable.Load(),
	}
}

// readyBody is the subset of the server's /readyz body the router reads.
type readyBody struct {
	Status string `json:"status"`
	Cause  string `json:"cause,omitempty"`
}

// Health implements Backend by probing the primary's readiness endpoint.
func (r *Remote) Health(ctx context.Context) Health {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.urls[0]+"/readyz", nil)
	if err != nil {
		return Health{Status: "unreachable", Cause: err.Error()}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return Health{Status: "unreachable", Cause: err.Error()}
	}
	defer resp.Body.Close()
	var body readyBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
		return Health{Status: "unreachable", Cause: fmt.Sprintf("bad readiness body: %v", err)}
	}
	if body.Status == "" {
		body.Status = resp.Status
	}
	return Health{Status: body.Status, Cause: body.Cause}
}

// errorBody matches the server's error responses.
type errorBody struct {
	Error string `json:"error"`
}

// do runs one JSON request against base+path and decodes a 2xx body into
// out. Non-2xx responses surface the server's error string.
func (r *Remote) do(ctx context.Context, base, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		if eb.Error != "" {
			return fmt.Errorf("%s %s: %s (%s)", method, path, eb.Error, resp.Status)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
