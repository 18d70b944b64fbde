package resilience

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTicketReleaseIsIdempotent(t *testing.T) {
	s := NewSemaphore(4, time.Second)
	tk, err := s.AcquireTicket(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tk.n; got != 3 {
		t.Fatalf("ticket weight = %d, want 3", got)
	}
	if inflight, _, _ := s.Stats(); inflight != 3 {
		t.Fatalf("inflight after acquire = %d, want 3", inflight)
	}
	tk.Release()
	tk.Release() // a second release must be a no-op, not a panic or a double-credit
	tk.Release()
	if inflight, _, _ := s.Stats(); inflight != 0 {
		t.Fatalf("inflight after releases = %d, want 0", inflight)
	}
	// The semaphore's own over-release guard still fires for raw misuse,
	// proving the ticket is what absorbed the duplicates above.
	defer func() {
		if recover() == nil {
			t.Error("raw over-release did not panic")
		}
	}()
	s.Release(1)
}

// TestTicketConcurrentRelease hammers Release from many goroutines: exactly
// one must win, so the semaphore never underflows. The /query/batch handler
// depends on this — the deferred release and the client-gone early release
// race by design.
func TestTicketConcurrentRelease(t *testing.T) {
	s := NewSemaphore(8, time.Second)
	for round := 0; round < 100; round++ {
		tk, err := s.AcquireTicket(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tk.Release()
			}()
		}
		wg.Wait()
		if inflight, _, _ := s.Stats(); inflight != 0 {
			t.Fatalf("round %d: inflight = %d, want 0", round, inflight)
		}
	}
}

func TestTicketClampsLikeAcquire(t *testing.T) {
	s := NewSemaphore(2, time.Second)
	tk, err := s.AcquireTicket(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	// An oversized request is clamped to capacity (same contract as
	// Acquire); the ticket must remember the clamped weight or its release
	// would underflow.
	if got := tk.n; got != 2 {
		t.Fatalf("clamped ticket weight = %d, want 2", got)
	}
	tk.Release()
	if inflight, _, _ := s.Stats(); inflight != 0 {
		t.Fatalf("inflight = %d, want 0", inflight)
	}
}

func TestTicketAcquireFailure(t *testing.T) {
	s := NewSemaphore(1, time.Millisecond)
	held, err := s.AcquireTicket(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireTicket(context.Background(), 1); err == nil {
		t.Fatal("second acquire should time out against a full semaphore")
	}
	held.Release()
	// A nil ticket (the error path) tolerates Release.
	var nilTk *Ticket
	nilTk.Release()
}
