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
	"llmq/internal/vector"
)

// Client mode: `llmq batch -url` and `llmq train -url` speak to a running
// `llmq serve` instance instead of loading the relation locally, and `llmq
// query` and `llmq batch -data` speak to the same server booted in process
// (localClient). Every request rides resilience.Do, so a server that sheds
// under overload (429 with Retry-After, 503 during brownout or read-only) is
// retried with jittered exponential backoff that honors the server's hint —
// the client half of the admission-control contract.

// clientBackoff is the retry policy of the client subcommands: up to 6
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

// postJSON POSTs body as JSON to url on c with retries and returns the
// response on a 200; any terminal non-200 status is turned into an error
// carrying the server's error body. The caller owns closing the response
// body.
func postJSON(ctx context.Context, c *http.Client, url string, body any) (*http.Response, error) {
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
	resp, err := resilience.Do(ctx, c, newReq, clientBackoff)
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

// joinURL glues a base server URL and an endpoint path.
func joinURL(base, path string) string {
	return strings.TrimRight(base, "/") + path
}

// sendSheet sends a statement sheet to the /query/batch of the server at
// base through c, in admission-sized chunks, and calls visit with each
// statement's position and result frame in input order. The server streams
// NDJSON, and the frames are consumed incrementally: each is visited the
// moment it arrives, while later statements in the sheet are still
// executing. Retries cover only the pre-stream phase (a 429/503 shed before
// the server committed to the sheet); once frames flow, a broken stream is
// terminal — re-sending could re-execute statements the server already
// answered.
func sendSheet(ctx context.Context, c *http.Client, base string, sqls []string, visit func(i int, f serve.BatchFrame)) error {
	n := 0
	for n < len(sqls) {
		chunk := sqls[n:min(n+chunkLimit, len(sqls))]
		resp, err := postJSON(ctx, c, joinURL(base, "/query/batch"), serve.BatchRequest{SQL: chunk})
		if err != nil {
			return err
		}
		trailer, err := serve.ReadBatchStream(resp.Body, func(f serve.BatchFrame) error {
			visit(n, f)
			n++
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
	return nil
}

// printAnswer renders one answered statement, the QueryResponse of its
// result frame, the one way `llmq query` and `llmq batch` print it, local or
// remote: the aggregate, its value or count of local linear models, where
// the answer came from (exact over N tuples, or the model, degraded under
// overload if so) and its elapsed time, an exact fit's FVU and R², and one
// S[i] line per local linear model. The output attribute is written u and
// the inputs x1…xd, as core.LocalLinear writes them: a result frame names no
// attribute.
func printAnswer(out io.Writer, r *serve.QueryResponse) {
	head := fmt.Sprintf("REGRESSION(u): %d local linear model(s) [", len(r.Models))
	switch {
	case r.Mean != nil:
		head = fmt.Sprintf("AVG(u) = %.6g   [", *r.Mean)
	case r.Value != nil:
		head = fmt.Sprintf("VALUE(u) = %.6g   [", *r.Value)
	}
	source := fmt.Sprintf("exact over %d tuples, %s]", r.Tuples, r.Elapsed)
	if r.Approx {
		model := "model"
		if r.Degraded {
			model = "model, degraded under overload"
		}
		head, source = "approx "+head, fmt.Sprintf("%s, %s, no data access]", model, r.Elapsed)
	}
	fit := ""
	switch {
	case r.FVU != nil && r.R2 != nil:
		fit = fmt.Sprintf("  (FVU=%.4g, R²=%.4g)", *r.FVU, *r.R2)
	case r.R2 != nil:
		fit = fmt.Sprintf("  (R²=%.4g)", *r.R2)
	}
	fmt.Fprintf(out, "%s%s%s\n", head, source, fit)
	for i, m := range r.Models {
		lm := core.LocalLinear{Intercept: m.Intercept, Slope: m.Slope}
		fmt.Fprintf(out, "  S[%d] (weight %.3f, around %s, θ=%.3g): %s\n", i, m.Weight, vector.Format(m.Center), m.Theta, lm)
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
		chunk := pairs[:min(len(pairs), chunkLimit)]
		pairs = pairs[len(chunk):]
		req := serve.TrainRequest{Pairs: make([]serve.TrainPair, len(chunk))}
		for i, p := range chunk {
			req.Pairs[i] = serve.TrainPair{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer}
		}
		resp, err := postJSON(ctx, http.DefaultClient, joinURL(base, "/train"), req)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
		}
		if err != nil {
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
