package resilience

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff configures the client-side retry loop: jittered exponential
// delays between attempts, with server-supplied Retry-After hints taking
// precedence over the computed delay. The zero value takes the defaults
// noted on each field.
type Backoff struct {
	// Base is the first retry delay; each further retry doubles it.
	// Default 100ms.
	Base time.Duration
	// Max caps the computed delay and any Retry-After hint. Default 5s.
	Max time.Duration
	// Tries is the total number of attempts (the first try included).
	// Default 5.
	Tries int
	// Jitter spreads each delay uniformly over ±Jitter of itself, so a
	// shed fleet of clients does not retry in lockstep against the same
	// admission window. Default 0.2; negative disables jitter.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Tries <= 0 {
		b.Tries = 5
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b
}

// backoffRNG jitters retry delays; protected because one client may retry
// from many goroutines.
var (
	backoffMu  sync.Mutex
	backoffRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the jittered delay before retry attempt (0-based: the
// delay between the first failure and the second try is Delay(0)).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := b.Base << uint(attempt)
	if d <= 0 || d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		backoffMu.Lock()
		f := 1 + b.Jitter*(2*backoffRNG.Float64()-1)
		backoffMu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// parseRetryAfter parses a Retry-After header value: either delay-seconds
// or an HTTP-date. The ok result is false when the header is absent or
// unparseable (the client then falls back to its computed backoff).
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// retryStatus reports whether an HTTP status is a shed the server wants
// retried later: 429 (admission refused) and 503 (overloaded/read-only).
func retryStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Do runs an HTTP request with retries: 429/503 responses and transport
// errors are retried up to Tries attempts, sleeping the larger of the
// jittered exponential delay and the response's Retry-After hint (both
// capped at Max) between attempts. A transport error is retried only when
// the request never reached the server whole, or its method is GET or
// HEAD: a POST the server may have applied before the connection dropped
// (a /train chunk) is not sent twice, and its error is returned at once.
// newReq must produce a fresh request per attempt (bodies are consumed);
// each request is bound to ctx. The final response — success,
// non-retryable error status, or the last shed — is returned to the caller
// to interpret, with its body intact; retried responses are drained and
// closed here.
func Do(ctx context.Context, c *http.Client, newReq func() (*http.Request, error), b Backoff) (*http.Response, error) {
	b = b.withDefaults()
	if c == nil {
		c = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; attempt < b.Tries; attempt++ {
		if attempt > 0 {
			if err := Sleep(ctx, b.retryDelay(attempt-1, lastErr)); err != nil {
				return nil, err
			}
		}
		req, err := newReq()
		if err != nil {
			return nil, err
		}
		var wrote atomic.Bool
		trace := &httptrace.ClientTrace{WroteRequest: func(info httptrace.WroteRequestInfo) {
			if info.Err == nil {
				wrote.Store(true)
			}
		}}
		resp, err := c.Do(req.WithContext(httptrace.WithClientTrace(ctx, trace)))
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if wrote.Load() && req.Method != http.MethodGet && req.Method != http.MethodHead {
				return nil, fmt.Errorf("resilience: %s %s was sent and may have been applied, so it is not retried: %w", req.Method, req.URL, err)
			}
			lastErr = err
			continue
		}
		if !retryStatus(resp.StatusCode) || attempt == b.Tries-1 {
			return resp, nil
		}
		lastErr = &shedError{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	return nil, fmt.Errorf("resilience: request failed after %d attempts: %w", b.Tries, lastErr)
}

// shedError carries a retried 429/503 between attempts so the next delay
// can honor its Retry-After hint, and so the terminal error names the
// status the server kept answering with.
type shedError struct {
	code       int
	retryAfter string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("server shed the request with status %d", e.code)
}

// retryDelay is the sleep before the (attempt+1)-th try: the computed
// jittered delay, or the server's Retry-After hint when that is longer,
// both capped at Max.
func (b Backoff) retryDelay(attempt int, lastErr error) time.Duration {
	d := b.Delay(attempt)
	if shed, ok := lastErr.(*shedError); ok {
		if hint, ok := parseRetryAfter(shed.retryAfter); ok && hint > d {
			d = hint
		}
	}
	if d > b.Max {
		d = b.Max
	}
	return d
}

// Sleep sleeps for d or until ctx is done, whichever comes first, and
// returns ctx's error in the second case.
func Sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
