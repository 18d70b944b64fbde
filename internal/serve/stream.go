package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Streaming /query/batch wire format. A batch response is NDJSON — one JSON
// object per line — so a client can act on early statements while late ones
// are still executing, instead of waiting for the whole sheet to buffer.
// The stream is: one result frame per statement, in statement order, each
// flushed as soon as every earlier statement has been answered; then one
// trailer frame. The frame grammar is enforced by ParseBatchFrame and the
// ordering by ReadBatchStream, which the llmq client and the tests share.

// NDJSONContentType is the Content-Type of a streaming /query/batch
// response.
const NDJSONContentType = "application/x-ndjson"

// maxFrameBytes bounds one NDJSON line on the consuming side; a frame past
// it is a protocol error, not an allocation. Generous for a wide exact-Q2
// answer (a few hundred bytes) and even for an APPROX regression carrying
// every overlapping local model.
const maxFrameBytes = 8 << 20

// BatchFrame is one line of a streaming /query/batch response: either a
// result frame (Index set, exactly one of the embedded answer or Error
// present) or the final trailer frame (Done set, with the stream totals).
type BatchFrame struct {
	// Index is the 0-based position of the statement this frame answers;
	// nil on the trailer frame. Result frames arrive in index order.
	Index *int `json:"index,omitempty"`
	// QueryResponse is the statement's answer, exactly the /query body.
	*QueryResponse
	// Error is the statement's positional error (parse failure, brownout
	// refusal, deadline, empty subspace, ...); the sheet keeps streaming.
	Error string `json:"error,omitempty"`
	// Done marks the trailer frame, always the last line of the stream; a
	// stream that ends without one was truncated.
	Done bool `json:"done,omitempty"`
	// Results is the trailer's count of result frames streamed before it.
	Results int `json:"results,omitempty"`
	// TotalElapsed is the trailer's wall-clock time of the whole sheet.
	TotalElapsed string `json:"total_elapsed,omitempty"`
}

// resultFrame builds a result frame answering statement i.
func resultFrame(i int, resp *QueryResponse) BatchFrame {
	return BatchFrame{Index: &i, QueryResponse: resp}
}

// errorFrame builds a result frame carrying statement i's positional error.
func errorFrame(i int, msg string) BatchFrame {
	return BatchFrame{Index: &i, Error: msg}
}

// ParseBatchFrame parses and validates one NDJSON line of a /query/batch
// stream. It rejects frames that are neither a result nor a trailer, both
// at once, or a result frame carrying neither an answer nor an error — the
// shapes a correct server never emits, so a client treats them as a broken
// stream rather than guessing.
func ParseBatchFrame(line []byte) (BatchFrame, error) {
	var f BatchFrame
	if err := json.Unmarshal(line, &f); err != nil {
		return BatchFrame{}, fmt.Errorf("invalid batch frame: %w", err)
	}
	switch {
	case f.Done && f.Index != nil:
		return BatchFrame{}, errors.New("invalid batch frame: both a result index and a trailer marker")
	case !f.Done && f.Index == nil:
		return BatchFrame{}, errors.New("invalid batch frame: neither a result index nor a trailer marker")
	case f.Index != nil && *f.Index < 0:
		return BatchFrame{}, fmt.Errorf("invalid batch frame: negative index %d", *f.Index)
	case f.Index != nil && f.Error == "" && f.QueryResponse == nil:
		return BatchFrame{}, fmt.Errorf("invalid batch frame %d: neither an answer nor an error", *f.Index)
	case f.Index != nil && f.Error != "" && f.QueryResponse != nil:
		return BatchFrame{}, fmt.Errorf("invalid batch frame %d: both an answer and an error", *f.Index)
	case f.Done && f.Results < 0:
		return BatchFrame{}, fmt.Errorf("invalid batch trailer: negative result count %d", f.Results)
	}
	return f, nil
}

// ReadBatchStream consumes a streaming /query/batch body: visit (optional)
// is called once per result frame, in statement order, as frames arrive —
// so a caller printing or aggregating answers does so incrementally. It
// enforces the stream contract: every frame parses, result indices are
// exactly 0,1,2,..., the trailer is the last line and its Results matches
// the frames seen. The trailer is returned; any violation (including a
// stream that ends without a trailer — a mid-sheet disconnect seen from
// the client side) is an error.
func ReadBatchStream(r io.Reader, visit func(BatchFrame) error) (BatchFrame, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)
	next := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		f, err := ParseBatchFrame(line)
		if err != nil {
			return BatchFrame{}, err
		}
		if f.Done {
			if f.Results != next {
				return BatchFrame{}, fmt.Errorf("batch trailer claims %d results, stream carried %d", f.Results, next)
			}
			// The trailer must be the last line; anything after it is junk.
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) != 0 {
					return BatchFrame{}, errors.New("batch stream continues past the trailer")
				}
			}
			if err := sc.Err(); err != nil {
				return BatchFrame{}, err
			}
			return f, nil
		}
		if *f.Index != next {
			return BatchFrame{}, fmt.Errorf("batch frame index %d, want %d (frames must arrive in statement order)", *f.Index, next)
		}
		next++
		if visit != nil {
			if err := visit(f); err != nil {
				return BatchFrame{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return BatchFrame{}, err
	}
	return BatchFrame{}, fmt.Errorf("batch stream truncated after %d frames (no trailer)", next)
}

// streamFrames writes result frames to w in statement order as statements
// complete: completed feeds finished indices in any order, and each frame
// is encoded and flushed the moment every earlier statement's frame is out
// — per-statement flushing, not per-sheet buffering. It returns how many
// frames were written and the first write error; on a write error the
// caller owns cancelling the rest of the sheet (backpressure: a client
// that stopped reading stops the statements it will never see). Exactly
// the contiguous prefix [0, wrote) of frames has been written on return.
func streamFrames(w http.ResponseWriter, n int, completed <-chan int, frame func(i int) BatchFrame) (wrote int, err error) {
	flusher, _ := w.(http.Flusher)
	fw := frameWriter{w: w}
	ready := make([]bool, n)
	next := 0
	for i := range completed {
		ready[i] = true
		for next < n && ready[next] {
			if err := fw.write(frame(next)); err != nil {
				return next, err
			}
			next++
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	return next, nil
}

// frameWriter writes the frames of one /query/batch stream, each as one
// NDJSON line: a result frame carrying an answer through appendAnswer, any
// other frame through encoding/json. An answer appendAnswer cannot encode
// becomes that statement's error frame, so the sheet keeps streaming. The
// only error returned is the writer's.
type frameWriter struct {
	w   io.Writer
	enc *json.Encoder // made on the first frame that is not an answer
	buf []byte
}

func (fw *frameWriter) write(f BatchFrame) error {
	if f.Index != nil && f.QueryResponse != nil {
		b, err := appendAnswer(fw.buf[:0], *f.Index, f.QueryResponse)
		fw.buf = b
		if err == nil {
			_, err = fw.w.Write(b)
			return err
		}
		f = errorFrame(*f.Index, err.Error())
	}
	if fw.enc == nil {
		fw.enc = json.NewEncoder(fw.w)
	}
	return fw.enc.Encode(f)
}
