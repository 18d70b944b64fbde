// Package resilience holds the overload-protection primitives of the
// serving tier: a weighted admission semaphore with a bounded wait budget
// (load shedding), a jittered-exponential-backoff HTTP retry loop that
// honors Retry-After, a per-request deadline middleware, and a hardened
// http.Server factory with the slow-client timeouts every production
// listener needs. internal/serve composes them into admission control,
// brownout and fail-safe behaviour; cmd/llmq wires them to flags.
//
// The design principle throughout is that overload must produce a cheap,
// well-formed refusal — a 429 with a Retry-After the client's backoff loop
// understands — rather than an ever-growing queue of goroutines: the
// refusal path allocates nothing per request beyond the response itself,
// and every bound (concurrency, wait budget, deadline) is explicit.
package resilience

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned by Semaphore.Acquire when the wait budget is
// exhausted before capacity frees up: the caller should shed the request
// (HTTP 429) rather than queue it further.
var ErrOverloaded = errors.New("resilience: overloaded, admission wait budget exhausted")

// Semaphore is a weighted admission semaphore with a bounded wait budget.
// Each admitted request holds weight units of the capacity until Release;
// an Acquire that cannot be admitted within the wait budget fails with
// ErrOverloaded instead of queueing unboundedly — the semaphore is a load
// shedder, not a queue. Waiters are served FIFO, so a stream of light
// requests cannot starve a heavy one already waiting (and vice versa: the
// heavy sheet ahead in line blocks lighter arrivals behind it, which is
// what bounds its own wait).
type Semaphore struct {
	capacity int64
	budget   time.Duration

	mu      sync.Mutex
	cur     int64      // admitted weight
	waiting int64      // queued weight (waiters not yet admitted)
	shed    int64      // cumulative requests refused (monitoring)
	q       *list.List // of *waiter, FIFO
}

// waiter is one queued Acquire; ready is closed under the mutex exactly
// when the grant is accounted, so a racing timeout can detect it.
type waiter struct {
	n       int64
	ready   chan struct{}
	granted bool
}

// NewSemaphore creates a semaphore admitting at most capacity units of
// weight concurrently, with each Acquire willing to wait at most budget
// for admission (≤ 0 means shed immediately when full). capacity must be
// positive.
func NewSemaphore(capacity int64, budget time.Duration) *Semaphore {
	if capacity <= 0 {
		panic("resilience: semaphore capacity must be positive")
	}
	return &Semaphore{capacity: capacity, budget: budget, q: list.New()}
}

// Capacity returns the admission capacity in weight units.
func (s *Semaphore) Capacity() int64 { return s.capacity }

// clamp bounds a request weight to the full capacity: a request heavier
// than the whole budget (a maximal batch sheet against a small cap) is
// admitted at full capacity — it simply runs alone — instead of never.
func (s *Semaphore) clamp(n int64) int64 {
	if n < 1 {
		return 1
	}
	if n > s.capacity {
		return s.capacity
	}
	return n
}

// Acquire admits n units of weight, waiting at most the configured budget
// for capacity. It returns nil on admission (the caller must Release the
// same weight), ErrOverloaded when the budget elapses first, and ctx.Err()
// when the context is done first. n is clamped to [1, capacity].
func (s *Semaphore) Acquire(ctx context.Context, n int64) error {
	n = s.clamp(n)
	s.mu.Lock()
	if s.q.Len() == 0 && s.cur+n <= s.capacity {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	if s.budget <= 0 {
		s.shed++
		s.mu.Unlock()
		return ErrOverloaded
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	elem := s.q.PushBack(w)
	s.waiting += n
	s.mu.Unlock()

	timer := time.NewTimer(s.budget)
	defer timer.Stop()
	var cause error
	select {
	case <-w.ready:
		return nil
	case <-timer.C:
		cause = ErrOverloaded
	case <-ctx.Done():
		cause = ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// The grant raced the timeout: keep the admission (the caller
		// sees nil and proceeds) rather than bounce capacity around.
		return nil
	}
	s.q.Remove(elem)
	s.waiting -= n
	if errors.Is(cause, ErrOverloaded) {
		s.shed++
	}
	return cause
}

// TryAcquire admits n units only if that needs no waiting at all.
func (s *Semaphore) TryAcquire(n int64) bool {
	n = s.clamp(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.q.Len() == 0 && s.cur+n <= s.capacity {
		s.cur += n
		return true
	}
	return false
}

// Release returns n units of weight and admits as many queued waiters, in
// FIFO order, as now fit. n must match the weight passed to the Acquire
// being released (it is clamped identically).
func (s *Semaphore) Release(n int64) {
	n = s.clamp(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur -= n
	if s.cur < 0 {
		panic("resilience: semaphore released more than acquired")
	}
	for e := s.q.Front(); e != nil; e = s.q.Front() {
		w := e.Value.(*waiter)
		if s.cur+w.n > s.capacity {
			break
		}
		s.q.Remove(e)
		s.waiting -= w.n
		s.cur += w.n
		w.granted = true
		close(w.ready)
	}
}

// Saturated reports whether the admission queue holds at least a full
// capacity's worth of waiting weight — the signal the serving tier uses to
// enter brownout: the line is already one whole server deep, so expensive
// work should be shed before cheap work is.
func (s *Semaphore) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting >= s.capacity
}

// Stats returns the instantaneous admitted weight, waiting weight and the
// cumulative shed count. No endpoint reports them yet; tests read them to
// check that every admitted request gave its weight back.
func (s *Semaphore) Stats() (inflight, waiting, shed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.waiting, s.shed
}

// RetryAfter suggests how long a shed client should back off before
// retrying, scaled by how deep the waiting line is relative to capacity
// and capped at 30 seconds. The serving tier emits it as the Retry-After
// header (integer seconds, minimum 1) on 429/503 responses.
func (s *Semaphore) RetryAfter() time.Duration {
	s.mu.Lock()
	waiting := s.waiting
	s.mu.Unlock()
	d := time.Duration(1+waiting/s.capacity) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}
