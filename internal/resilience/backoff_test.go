package resilience

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndJitter(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.2}
	prevMax := time.Duration(0)
	for attempt := 0; attempt < 6; attempt++ {
		want := b.Base << uint(attempt)
		if want > b.Max {
			want = b.Max
		}
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		for i := 0; i < 20; i++ {
			d := b.Delay(attempt)
			if d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v]", attempt, d, lo, hi)
			}
		}
		if want > prevMax {
			prevMax = want
		}
	}
	if prevMax != b.Max {
		t.Fatalf("delays never reached the cap %v", b.Max)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d, ok := parseRetryAfter("7"); !ok || d != 7*time.Second {
		t.Errorf("seconds form: %v %v", d, ok)
	}
	if _, ok := parseRetryAfter(""); ok {
		t.Error("empty header parsed")
	}
	if _, ok := parseRetryAfter("soon"); ok {
		t.Error("garbage header parsed")
	}
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(future); !ok || d <= 0 || d > 3*time.Second {
		t.Errorf("http-date form: %v %v", d, ok)
	}
}

// TestDoRetriesUntilAdmitted sheds the first two attempts with 429 +
// Retry-After and admits the third; Do must return the 200 and must have
// waited at least the hinted second.
func TestDoRetriesUntilAdmitted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	b := Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Tries: 5}
	resp, err := Do(context.Background(), ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, ts.URL, nil)
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
}

// TestDoSendsAWrittenPostOnce drops the connection after the server has read
// a whole POST body — the server may have applied it, as /train applies a
// chunk before it answers — and checks that Do returns the transport error
// instead of sending the body again, while a GET that meets the same drop
// is still retried.
func TestDoSendsAWrittenPostOnce(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		calls.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer ts.Close()
	b := Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Tries: 3}
	_, err := Do(context.Background(), ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(`{"pairs":[]}`))
	}, b)
	if err == nil {
		t.Fatal("a dropped POST returned no error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server received the POST %d times, want once", n)
	}
	calls.Store(0)
	if _, err := Do(context.Background(), ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, ts.URL, nil)
	}, b); err == nil {
		t.Fatal("a dropped GET returned no error")
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server received the GET %d times, want all 3 tries", n)
	}
}

// TestDoRetriesARefusedPost checks that a POST that never reached a server
// (connection refused) is still retried: nothing can have been applied.
func TestDoRetriesARefusedPost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	var tries atomic.Int64
	b := Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Tries: 3}
	if _, err := Do(context.Background(), http.DefaultClient, func() (*http.Request, error) {
		tries.Add(1)
		return http.NewRequest(http.MethodPost, url, strings.NewReader(`{"pairs":[]}`))
	}, b); err == nil {
		t.Fatal("a refused POST returned no error")
	}
	if n := tries.Load(); n != 3 {
		t.Fatalf("Do made %d attempts at a refused POST, want 3", n)
	}
}

// TestDoHonorsRetryAfterHint verifies the server's Retry-After stretches
// the sleep beyond the computed backoff (capped at Max).
func TestDoHonorsRetryAfterHint(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Second, Tries: 3, Jitter: -1}
	start := time.Now()
	resp, err := Do(context.Background(), ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, ts.URL, nil)
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, Retry-After hinted 1s", elapsed)
	}
}

// TestDoGivesUpAfterTries returns the final shed response to the caller
// when every attempt is refused.
func TestDoGivesUpAfterTries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	b := Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Tries: 3}
	resp, err := Do(context.Background(), ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, ts.URL, nil)
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("final status = %d, want the last 429 handed back", resp.StatusCode)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
}

func TestDoContextCancelStopsRetrying(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	b := Backoff{Base: time.Millisecond, Max: time.Minute, Tries: 10}
	start := time.Now()
	_, err := Do(ctx, ts.Client(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, ts.URL, nil)
	}, b)
	if err == nil {
		t.Fatal("cancelled Do returned nil error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Do ignored the context for %v", time.Since(start))
	}
}

func TestWithTimeoutAttachesDeadline(t *testing.T) {
	var sawDeadline atomic.Bool
	h := WithTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, ok := r.Context().Deadline()
		sawDeadline.Store(ok)
	}), 50*time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !sawDeadline.Load() {
		t.Fatal("handler context carries no deadline")
	}
	// d <= 0 is the identity.
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := WithTimeout(base, 0); got == nil {
		t.Fatal("WithTimeout(0) returned nil")
	}
}
