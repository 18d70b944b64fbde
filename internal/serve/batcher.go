package serve

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"llmq/internal/exec"
	"llmq/internal/sqlfront"
)

// batcher coalesces concurrent single-statement /query requests into batch
// sheets: requests arriving within one batching window (Limits.BatchWindow)
// are cut into a sheet that executes over a single pinned model version via
// the shared worker pool, instead of each request pinning, traversing and
// tearing down on its own. Identical statements inside a sheet — the
// hot-spot shape of heavy user traffic — are collapsed to one evaluation
// whose answer fans out to every waiter, which is where the big win lives:
// k users asking the popular query cost one prediction, bit-identically
// (same pinned View, same deterministic read path).
//
// The batcher sits INSIDE the admission boundary: a request only reaches
// submit after its own brownout check and its own admission grant, so shed
// and degrade decisions stay per-request and a refused EXACT statement
// never poisons (or rides along with) anyone else's sheet.
//
// The window adapts to the arrival rate: a sheet that closed with a single
// waiter halves the window (sparse traffic should not pay latency for
// coalescing that is not happening, down to maxWindow/16), and a sheet
// that actually coalesced doubles it back toward the configured budget.
type batcher struct {
	s        *Server
	maxSheet int
	// maxWindow is the configured budget, minWindow the adaptive floor;
	// window is the current adaptive value in nanoseconds.
	maxWindow time.Duration
	minWindow time.Duration
	window    atomic.Int64

	mu      sync.Mutex
	gen     uint64 // sheets cut so far; guards stale window timers
	pending []*pendingStmt

	// Counters for tests and the cost model: sheets cut, statements that
	// shared a sheet with at least one other, and statements answered by a
	// duplicate's evaluation.
	sheets    atomic.Int64
	coalesced atomic.Int64
	collapsed atomic.Int64
}

// pendingStmt is one parked /query statement waiting for its sheet.
type pendingStmt struct {
	ctx      context.Context
	stmt     *sqlfront.Statement
	degraded bool
	// done carries the outcome; buffered so a waiter that gave up (its own
	// deadline or disconnect) never blocks the sheet's delivery.
	done chan coalesceOutcome
}

// coalesceOutcome is what a sheet delivers to each of its statements.
type coalesceOutcome struct {
	resp *QueryResponse
	err  error
	// reader is the sheet's pinned prediction surface; the bit-identity
	// property test re-evaluates against exactly this surface.
	reader modelReader
	// sheet is the statement count of the sheet that answered this.
	sheet int
}

func newBatcher(s *Server) *batcher {
	b := &batcher{
		s:         s,
		maxSheet:  s.limits.BatchMaxSheet,
		maxWindow: s.limits.BatchWindow,
		minWindow: s.limits.BatchWindow / 16,
	}
	if b.minWindow <= 0 {
		b.minWindow = 1
	}
	b.window.Store(int64(b.maxWindow))
	return b
}

// do parks one admitted statement, waits for its sheet's answer, and
// returns it — or returns early with ctx.Err() when the request dies first
// (its slot in the sheet then resolves into the buffered channel and is
// garbage collected; nothing leaks).
func (b *batcher) do(ctx context.Context, stmt *sqlfront.Statement, degraded bool) (*QueryResponse, error) {
	p := b.submit(ctx, stmt, degraded)
	select {
	case out := <-p.done:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// submit parks a statement on the open sheet. The first arrival arms the
// window timer; a sheet reaching maxSheet is cut immediately (overflow
// split) without waiting the window out.
func (b *batcher) submit(ctx context.Context, stmt *sqlfront.Statement, degraded bool) *pendingStmt {
	p := &pendingStmt{ctx: ctx, stmt: stmt, degraded: degraded, done: make(chan coalesceOutcome, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	switch {
	case len(b.pending) >= b.maxSheet:
		sheet := b.cutLocked()
		b.mu.Unlock()
		b.run(sheet)
	case len(b.pending) == 1:
		gen := b.gen
		delay := time.Duration(b.window.Load())
		b.mu.Unlock()
		time.AfterFunc(delay, func() { b.expire(gen) })
	default:
		b.mu.Unlock()
	}
	return p
}

// expire is the window timer: it cuts the sheet it was armed for. A timer
// whose sheet was already cut by overflow finds the generation advanced
// and does nothing — the next sheet has its own timer.
func (b *batcher) expire(gen uint64) {
	b.mu.Lock()
	if gen != b.gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	sheet := b.cutLocked()
	b.mu.Unlock()
	b.run(sheet)
}

// cutLocked detaches the open sheet, advances the generation and adapts
// the window to what the sheet proved about the arrival rate.
func (b *batcher) cutLocked() []*pendingStmt {
	sheet := b.pending
	b.pending = nil
	b.gen++
	w := time.Duration(b.window.Load())
	if len(sheet) <= 1 {
		if w /= 2; w < b.minWindow {
			w = b.minWindow
		}
	} else {
		if w *= 2; w > b.maxWindow {
			w = b.maxWindow
		}
	}
	b.window.Store(int64(w))
	return sheet
}

// run executes one sheet: pin a prediction surface once (a model View, or
// the sharded scatter bound to the sheet's context), group duplicate
// statements, evaluate each group once over the shared pool, and fan the
// outcomes out. The sheet runs
// under its own QueryTimeout-bounded context — not any one member's — so
// one member's disconnect cannot kill a shared evaluation; a singleton
// group still runs under its own request context, so a lone statement's
// deadline behaves exactly like the uncoalesced path.
func (b *batcher) run(sheet []*pendingStmt) {
	b.sheets.Add(1)
	if len(sheet) > 1 {
		b.coalesced.Add(int64(len(sheet)))
	}
	ctx := context.Background()
	cancel := func() {}
	if t := b.s.limits.QueryTimeout; t > 0 {
		ctx, cancel = context.WithTimeout(ctx, t)
	}
	defer cancel()
	reader := b.s.backend.reader(ctx)

	groups := make(map[string][]*pendingStmt, len(sheet))
	order := make([]string, 0, len(sheet))
	for _, p := range sheet {
		k := coalesceKey(p.stmt, p.degraded)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	b.collapsed.Add(int64(len(sheet) - len(order)))

	_ = exec.ForEachParallelCtx(ctx, len(order), func(gi int) {
		members := groups[order[gi]]
		ectx := ctx
		if len(members) == 1 {
			one := members[0]
			if err := one.ctx.Err(); err != nil {
				// The lone waiter is already gone or past its deadline:
				// skip the evaluation, deliver its own context error (the
				// handler maps it to 504 / silence for this statement only).
				one.done <- coalesceOutcome{err: err, reader: reader, sheet: len(sheet)}
				return
			}
			ectx = one.ctx
		}
		resp, err := b.s.answer(ectx, members[0].stmt, reader, members[0].degraded)
		out := coalesceOutcome{resp: resp, err: err, reader: reader, sheet: len(sheet)}
		for _, p := range members {
			p.done <- out
		}
	})
}

// coalesceKey is the duplicate-collapse identity of a statement: two
// statements share an evaluation iff every field that reaches the answer
// path matches exactly (float equality at the bit level — the coalesced
// answer must be bit-identical to the uncoalesced one, so "close enough"
// is not an equivalence). The table name is deliberately excluded: a
// server serves one relation and the evaluator never reads it.
func coalesceKey(stmt *sqlfront.Statement, degraded bool) string {
	k := make([]byte, 0, 24+8*(len(stmt.Center)+len(stmt.At)))
	flags := byte(0)
	if stmt.Approx {
		flags |= 1
	}
	if degraded {
		flags |= 2
	}
	k = append(k, byte(stmt.Kind), flags, byte(len(stmt.At)))
	k = binary.LittleEndian.AppendUint64(k, math.Float64bits(stmt.Theta))
	k = binary.LittleEndian.AppendUint64(k, math.Float64bits(stmt.Norm))
	for _, c := range stmt.Center {
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(c))
	}
	for _, a := range stmt.At {
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(a))
	}
	k = append(k, stmt.Output...)
	k = append(k, 0)
	for _, in := range stmt.Inputs {
		k = append(k, in...)
		k = append(k, 0)
	}
	return string(k)
}
