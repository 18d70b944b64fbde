package resilience

import (
	"context"
	"sync/atomic"
)

// Ticket is one admission grant whose weight can be returned at most once:
// Release is idempotent, so a handler that wants to free capacity early on
// one path (a streaming response whose client hung up mid-body) can still
// keep an unconditional deferred Release on the normal path without
// double-releasing the semaphore. A plain Acquire/Release pair cannot
// express that — the second Release would panic.
type Ticket struct {
	sem      *Semaphore
	n        int64
	released atomic.Bool
}

// Release returns the ticket's weight to the semaphore. Only the first call
// does anything; later calls (including concurrent ones) are no-ops, and a
// nil ticket is safe to release.
func (t *Ticket) Release() {
	if t == nil || !t.released.CompareAndSwap(false, true) {
		return
	}
	t.sem.Release(t.n)
}

// AcquireTicket is Acquire returning an idempotently releasable grant; the
// admission semantics (FIFO queue, wait budget, ErrOverloaded) are exactly
// Acquire's. On error the ticket is nil and nothing is held.
func (s *Semaphore) AcquireTicket(ctx context.Context, n int64) (*Ticket, error) {
	n = s.clamp(n)
	if err := s.Acquire(ctx, n); err != nil {
		return nil, err
	}
	return &Ticket{sem: s, n: n}, nil
}
