package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/resilience"
	"llmq/internal/serve"
)

// Remote client mode: `llmq batch -url` and `llmq train -url` speak to a
// running `llmq serve` instance instead of loading the relation locally.
// Both ride resilience.Do, so a server that sheds under overload (429 with
// Retry-After, 503 during brownout or read-only) is retried with jittered
// exponential backoff that honors the server's hint — the client half of
// the admission-control contract.

// clientBackoff is the retry policy of the remote subcommands: up to 6
// attempts over roughly 10 seconds of worst-case waiting.
var clientBackoff = resilience.Backoff{
	Base:  200 * time.Millisecond,
	Max:   4 * time.Second,
	Tries: 6,
}

// chunkLimit is the largest request the client sends at once; it matches
// the server's per-request caps (maxBatchStatements / maxTrainPairs), so a
// big workload ships as several admission-sized requests instead of one
// oversized POST the server must reject.
const chunkLimit = 4096

// postJSON POSTs body as JSON to url with retries and returns the response
// on a 200; any terminal non-200 status is turned into an error carrying
// the server's error body. The caller owns closing the response body.
func postJSON(ctx context.Context, url string, body any) (*http.Response, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	newReq := func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}
	resp, err := resilience.Do(ctx, http.DefaultClient, newReq, clientBackoff)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("%s: %s", resp.Status, eb.Error)
		}
		resp.Body.Close()
		return nil, fmt.Errorf("%s answered %s", url, msg)
	}
	return resp, nil
}

// postRetry POSTs body as JSON to url with retries and decodes a 200
// response into result.
func postRetry(ctx context.Context, url string, body, result any) error {
	resp, err := postJSON(ctx, url, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(result)
}

// joinURL glues a base server URL and an endpoint path.
func joinURL(base, path string) string {
	return strings.TrimRight(base, "/") + path
}

// remoteBatch ships a statement sheet to a running server's /query/batch in
// admission-sized chunks and prints the positional answers in input order.
// The server streams NDJSON, and the client consumes it incrementally: each
// answer is printed the moment its frame arrives, while later statements in
// the sheet are still executing. Retries cover only the pre-stream phase (a
// 429/503 shed before the server committed to the sheet); once frames flow,
// a broken stream is terminal — re-sending could re-execute statements the
// server already answered.
func remoteBatch(ctx context.Context, out io.Writer, base string, sqls []string) error {
	start := time.Now()
	n := 0
	for len(sqls) > 0 {
		chunk := sqls
		if len(chunk) > chunkLimit {
			chunk = chunk[:chunkLimit]
		}
		sqls = sqls[len(chunk):]
		resp, err := postJSON(ctx, joinURL(base, "/query/batch"), serve.BatchRequest{SQL: chunk})
		if err != nil {
			return err
		}
		trailer, err := serve.ReadBatchStream(resp.Body, func(f serve.BatchFrame) error {
			n++
			printBatchFrame(out, n, f)
			return nil
		})
		resp.Body.Close()
		if err != nil {
			return err
		}
		if trailer.Results != len(chunk) {
			return fmt.Errorf("server answered %d results for %d statements", trailer.Results, len(chunk))
		}
	}
	fmt.Fprintf(out, "answered %d statements in %v\n", n, time.Since(start).Round(time.Microsecond))
	return nil
}

// printBatchFrame renders one positional /query/batch answer as one line:
// the statement's position, its aggregate and value, and where the answer
// came from (exact, model, or model degraded under overload). A frame
// carries no output column or timing, so the line is terser than what the
// local batch mode prints.
func printBatchFrame(out io.Writer, n int, f serve.BatchFrame) {
	if f.Error != "" {
		fmt.Fprintf(out, "[%d] error: %s\n", n, f.Error)
		return
	}
	r := f.QueryResponse
	mode := "exact"
	if r.Approx {
		mode = "model"
	}
	if r.Degraded {
		mode = "model, degraded under overload"
	}
	switch {
	case r.Mean != nil:
		fmt.Fprintf(out, "[%d] AVG = %.6g   [%s]\n", n, *r.Mean, mode)
	case r.Value != nil:
		fmt.Fprintf(out, "[%d] VALUE = %.6g   [%s]\n", n, *r.Value, mode)
	case len(r.Models) > 0 && r.R2 != nil:
		fmt.Fprintf(out, "[%d] REGRESSION: %d local linear model(s), R² = %.4g   [%s]\n", n, len(r.Models), *r.R2, mode)
	case len(r.Models) > 0:
		fmt.Fprintf(out, "[%d] REGRESSION: %d local linear model(s)   [%s]\n", n, len(r.Models), mode)
	default:
		fmt.Fprintf(out, "[%d] %s answered   [%s]\n", n, r.Kind, mode)
	}
}

// remoteTrain ships training pairs to a running server's /train in
// admission-sized chunks: the local engine node computes the exact answers,
// the serving node absorbs them into its (durable) model. Chunks are sent
// strictly in order — the server applies each batch under its writer lock,
// so the stream arrives in the same order local training would apply it.
func remoteTrain(ctx context.Context, out io.Writer, base string, pairs []core.TrainingPair) error {
	start := time.Now()
	sent := 0
	var last serve.TrainResponse
	for len(pairs) > 0 {
		chunk := pairs
		if len(chunk) > chunkLimit {
			chunk = chunk[:chunkLimit]
		}
		pairs = pairs[len(chunk):]
		req := serve.TrainRequest{Pairs: make([]serve.TrainPair, len(chunk))}
		for i, p := range chunk {
			req.Pairs[i] = serve.TrainPair{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer}
		}
		if err := postRetry(ctx, joinURL(base, "/train"), req, &last); err != nil {
			return fmt.Errorf("after %d pairs: %w", sent, err)
		}
		sent += len(chunk)
	}
	if sent == 0 {
		return errors.New("no training pairs to send")
	}
	durability := "volatile"
	if last.Durable {
		durability = "WAL-logged"
	}
	fmt.Fprintf(out, "shipped %d training pairs in %v: server at K=%d prototypes, %d steps, converged=%v (%s)\n",
		sent, time.Since(start).Round(time.Millisecond), last.Prototypes, last.Steps, last.Converged, durability)
	return nil
}
