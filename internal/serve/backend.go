package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"llmq/internal/core"
	"llmq/internal/replica"
	"llmq/internal/shard"
)

// backend is what a Server answers APPROX statements from and trains
// /train pairs into. The handlers know only this interface; which shape of
// model stands behind it is decided once, by the constructor.
type backend interface {
	// reader pins the prediction surface for one request or one sheet — a
	// published model version, or the sharded scatter bound to ctx — so a
	// model version's answers are mutually consistent while training
	// publishes concurrently. Nil when there are no prototypes to answer
	// from (the 409 gate of APPROX statements).
	reader(ctx context.Context) modelReader
	// readerUsesContext reports whether reader binds ctx to what it answers
	// — a sharded scatter does — so a request deadline must be armed before
	// the pin. A reader over a model in this process never looks at ctx.
	readerUsesContext() bool
	// train ingests one /train body. The backend refuses first if it cannot
	// train at all (so a misdirected or read-only instance never decodes
	// the body), then calls pairs exactly once — decode, validate, admit —
	// and trains what it returns. durable reports whether the pairs were
	// write-ahead logged.
	train(ctx context.Context, pairs func() ([]core.TrainingPair, error)) (st shard.TrainStats, durable bool, err error)
	// describe is the GET /model body.
	describe() ModelInfo
	// ready fills the backend's part of a /readyz body and reports whether
	// it makes the instance not ready.
	ready(ctx context.Context, resp *ReadyResponse) (notReady bool)
	// pair is the model (and durable store) living in this process, which
	// the /shard/* and /replicate/* protocols expose; the zero local when
	// there is none.
	pair() local
	// promote turns a follower into a writable primary.
	promote() error
}

// statusError is a refusal that already knows its HTTP status.
type statusError struct {
	status int
	err    error
}

func (e statusError) Error() string { return e.err.Error() }

// notPrimaryError refuses training on a follower: its state is defined as
// "exactly what the primary shipped", and local writes would silently fork
// it. The 421 tells the client it talked to the wrong instance, and where
// the right one is.
type notPrimaryError struct{ primary string }

func (e notPrimaryError) Error() string { return "read-only follower of " + e.primary }

var errAlreadyPrimary = errors.New("this instance is already a primary, not a follower")

// local is the single-model backend: a shard.Local — a model plus, when
// /train is write-ahead logged, its durable store. The zero value is "no
// model loaded". primary is set on a follower that has not been promoted.
type local struct {
	*shard.Local
	primary string
}

func (l local) reader(context.Context) modelReader {
	if l.Local == nil {
		return nil
	}
	if v := l.Model().View(); v.K() > 0 {
		return v
	}
	return nil
}

func (local) readerUsesContext() bool { return false }

func (l local) train(ctx context.Context, pairs func() ([]core.TrainingPair, error)) (shard.TrainStats, bool, error) {
	switch {
	case l.primary != "":
		return shard.TrainStats{}, false, notPrimaryError{l.primary}
	case l.Local == nil:
		return shard.TrainStats{}, false, statusError{http.StatusConflict, errors.New("no model loaded to train")}
	}
	if h := l.Health(ctx); h.Status != "ready" {
		return shard.TrainStats{}, false, statusError{http.StatusServiceUnavailable,
			fmt.Errorf("store is read-only after a WAL failure: %s", h.Cause)}
	}
	pp, err := pairs()
	if err != nil {
		return shard.TrainStats{}, false, err
	}
	st, err := l.Train(ctx, pp)
	return st, l.Durable() != nil, err
}

func (l local) describe() ModelInfo {
	if l.Local == nil {
		return ModelInfo{}
	}
	// Stats reads one pinned View, so K/Steps/Converged describe the same
	// version even while training publishes concurrently.
	st := l.Stats()
	return ModelInfo{
		Loaded:     true,
		Prototypes: st.Live,
		Steps:      st.Steps,
		Converged:  st.Converged,
		Vigilance:  l.Model().Config().Vigilance,
		Dim:        st.Dim,
		Durable:    st.Durable,
	}
}

func (l local) ready(ctx context.Context, resp *ReadyResponse) bool {
	if l.Local == nil {
		return false
	}
	h := l.Health(ctx)
	if h.Status == "ready" {
		return false
	}
	resp.Status, resp.Cause = h.Status, h.Cause
	return true
}

func (l local) pair() local { return l }

func (l local) promote() error { return errAlreadyPrimary }

// durable is the store whose log this instance can ship, or nil.
func (l local) durable() *core.Durable {
	if l.Local == nil {
		return nil
	}
	return l.Durable()
}

// follower serves from a replica of a remote primary. A re-bootstrap or a
// promotion swaps the replica's model and store at runtime, so every call
// resolves them afresh into a local backend: read-only (primary set) until
// promoted, an ordinary durable one afterwards.
type follower struct {
	rep    *replica.Replica
	maxLag int
}

func (f *follower) pair() local {
	if d := f.rep.Durable(); d != nil {
		return local{Local: shard.NewLocalDurable(d)}
	}
	l := local{primary: f.rep.Primary()}
	if m := f.rep.Model(); m != nil {
		l.Local = shard.NewLocal(m)
	}
	return l
}

func (f *follower) reader(ctx context.Context) modelReader { return f.pair().reader(ctx) }

func (*follower) readerUsesContext() bool { return false }

func (f *follower) train(ctx context.Context, pairs func() ([]core.TrainingPair, error)) (shard.TrainStats, bool, error) {
	return f.pair().train(ctx, pairs)
}

func (f *follower) describe() ModelInfo { return f.pair().describe() }

func (f *follower) ready(ctx context.Context, resp *ReadyResponse) bool {
	st := f.rep.Status()
	resp.Role = st.Role
	if st.Role != "primary" {
		resp.ReplicationLag = &st.Lag
		switch {
		case st.Diverged != nil:
			resp.Status, resp.Cause = "diverged", st.Diverged.Error()
		case !st.Bootstrapped:
			resp.Status = "bootstrapping"
		case st.Lag > f.maxLag:
			resp.Status = "lagging"
		}
		if resp.Status != "" {
			return true
		}
	}
	return f.pair().ready(ctx, resp)
}

func (f *follower) promote() error {
	_, err := f.rep.Promote()
	return err
}

// sharded scatters queries over a shard.Sharded set and gathers the union
// model's answer; /train partitions the pairs across the shards. The model
// lives in the shards, so there is no local one to expose.
type sharded struct{ *shard.Sharded }

func (s sharded) reader(ctx context.Context) modelReader {
	if s.Stats().Live == 0 {
		return nil
	}
	return s.Reader(ctx)
}

func (sharded) readerUsesContext() bool { return true }

func (s sharded) train(ctx context.Context, pairs func() ([]core.TrainingPair, error)) (shard.TrainStats, bool, error) {
	pp, err := pairs()
	if err != nil {
		return shard.TrainStats{}, false, err
	}
	st, err := s.TrainBatch(ctx, pp)
	if err != nil {
		return shard.TrainStats{}, false, err
	}
	return st, s.Stats().Durable, nil
}

func (s sharded) describe() ModelInfo {
	st := s.Stats()
	return ModelInfo{
		Loaded:     st.Live > 0,
		Prototypes: st.Live,
		Steps:      st.Steps,
		Converged:  st.Converged,
		Dim:        st.Dim,
		Durable:    st.Durable,
		Shards:     s.Shards(),
	}
}

// ready aggregates per-shard health: one degraded shard degrades the whole
// set, with the response naming every shard that is not ready (a router
// cannot answer boundary-straddling queries without all of a query's
// shards).
func (s sharded) ready(ctx context.Context, resp *ReadyResponse) bool {
	for id, h := range s.Health(ctx) {
		resp.Shards = append(resp.Shards, ShardReady{ID: id, Status: h.Status, Cause: h.Cause})
		if h.Status == "ready" {
			continue
		}
		resp.Status = "degraded"
		cause := fmt.Sprintf("shard %d %s", id, h.Status)
		if h.Cause != "" {
			cause += ": " + h.Cause
		}
		if resp.Cause != "" {
			resp.Cause += "; "
		}
		resp.Cause += cause
	}
	return resp.Status != ""
}

func (s sharded) pair() local { return local{} }

func (s sharded) promote() error { return errAlreadyPrimary }
