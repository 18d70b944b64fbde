package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"llmq/internal/core"
)

// benchTrainBody renders n d=2 pairs the way the repository's benchmark
// writes a /train body: no whitespace, keys in declaration order, floats in
// Go's shortest round-trip form.
func benchTrainBody(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	body := []byte(`{"pairs":[`)
	for k := 0; k < n; k++ {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"center":[`...)
		body = strconv.AppendFloat(body, rng.Float64(), 'g', -1, 64)
		body = append(body, ',')
		body = strconv.AppendFloat(body, rng.Float64(), 'g', -1, 64)
		body = append(body, `],"theta":`...)
		body = strconv.AppendFloat(body, 0.05+0.1*rng.Float64(), 'g', -1, 64)
		body = append(body, `,"answer":`...)
		body = strconv.AppendFloat(body, rng.NormFloat64(), 'g', -1, 64)
		body = append(body, '}')
	}
	return append(body, `]}`...)
}

// referencePairs is the decoder the scanner is held to: encoding/json over
// the first JSON value of the body, then convertPairs.
func referencePairs(body []byte) ([]core.TrainingPair, error) {
	var req TrainRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return convertPairs(req.Pairs)
}

// fuzzTrainServer is a server over a fresh d=2 model that never converges,
// so every valid body trains.
func fuzzTrainServer(tb testing.TB) *Server {
	cfg := core.DefaultConfig(2)
	cfg.Vigilance = 0.25
	cfg.Gamma = 1e-300
	m, err := core.NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(newShardedExecutor(tb), m)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// FuzzTrainBody holds the one-pass /train decoder to encoding/json: for any
// bytes, trainBuf.scan either declines or returns exactly the pairs the
// standard decoder and convertPairs produce from the same bytes — same
// count, same order, every float equal to the bit — and the handler answers
// with the same status and body whether the scanner ran or was made to
// decline. The two servers see the same requests in the same order, so their
// models stay in step for as long as the property holds.
func FuzzTrainBody(f *testing.F) {
	const pair = `{"center":[0.25,0.75],"theta":0.1,"answer":1.5}`
	wrap := func(pairs string) string { return `{"pairs":[` + pairs + `]}` }
	for _, seed := range []string{
		string(benchTrainBody(256, 1)),
		wrap(pair),
		" {\t\"pairs\"\n:\r[ { \"center\" : [ 0.25 , 0.75 ] , \"theta\" : 0.1 , \"answer\" : 1.5 } , " + pair + " ] } \n",
		wrap(`{"answer":-0,"theta":1e-400,"center":[1E+2,-0.0e-0]}`),
		wrap(`{"center":[1e309,0],"theta":0.1,"answer":1}`),
		// decimal.Parse's fallback shapes the JSON grammar admits
		wrap(`{"center":[9007199254740993,2.2250738585072011e-308],"theta":4.9e-324,"answer":1e23}`),
		wrap(`{"center":[-0,0e999],"theta":12345678901234567890,"answer":1234567890123456789012345}`),
		wrap(`{"center":[1e65,1e-65],"theta":0.500000,"answer":-0.000123}`),
		wrap(`{"center":[01,0],"theta":0.1,"answer":1}`),
		wrap(`{"center":[+1,0],"theta":0.1,"answer":1}`),
		wrap(`{"center":[.5,0],"theta":0.1,"answer":1}`),
		wrap(`{"center":[1.,0],"theta":0.1,"answer":1}`),
		wrap(`{"center":[0,0],"theta":0.1,"answer":Infinity}`),
		wrap(`{"center":[0,0],"theta":0.1,"answer":1,"answer":2}`),
		wrap(`{"center":[0,0],"center":[1,1],"theta":0.1,"answer":1}`),
		`{"pairs":[` + pair + `],"pairs":[` + pair + `,` + pair + `]}`,
		wrap(`{"Center":[0,0],"THETA":0.1,"answer":1}`),
		`{"PAIRS":[` + pair + `]}`,
		wrap(`{"center":[0,0],"theta":0.1,"answer":1,"note":"x"}`),
		wrap(`{"c\u0065nter":[0,0],"theta":0.1,"answer":1}`),
		wrap(`{"center":null,"theta":0.1,"answer":1}`),
		wrap(`{"center":[0,0],"theta":null,"answer":null}`),
		wrap(`{"center":[0,null],"theta":0.1,"answer":1}`),
		`{"pairs":null}`,
		`null`,
		wrap(`{"center":[],"theta":0.1,"answer":1}`),
		wrap(`{"center":[0,0],"theta":-0.1,"answer":1}`),
		wrap(`{"center":[0,0],"answer":1}`),
		wrap(`{"center":[0.5],"theta":0.1,"answer":1}`),
		wrap(``),
		`{}`,
		``,
		`{"pairs":[{"center":[0.25,0.7`,
		wrap(pair) + `{"pairs":[]}`,
		wrap(pair) + ` x`,
		wrap(pair + `,`),
		wrap(strings.Repeat(pair+",", maxTrainPairs) + pair),
	} {
		f.Add([]byte(seed))
	}
	scanned, declined := fuzzTrainServer(f), fuzzTrainServer(f)
	declined.declineScan = true
	post := func(t *testing.T, s *Server, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/train", bytes.NewReader(body)))
		out := rec.Body.String()
		if rec.Code == http.StatusOK {
			var resp TrainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable 200 body %q: %v", out, err)
			}
			resp.Elapsed = "" // the one field that is a clock reading
			b, _ := json.Marshal(resp)
			out = string(b)
		}
		return rec.Code, out
	}
	var tb trainBuf
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := tb.scan(body); ok {
			want, err := referencePairs(body)
			if err != nil {
				t.Fatalf("scan accepted a body encoding/json + convertPairs reject: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("scan returned %d pairs, reference %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				same := len(g.Query.Center) == len(w.Query.Center) &&
					math.Float64bits(g.Query.Theta) == math.Float64bits(w.Query.Theta) &&
					math.Float64bits(g.Answer) == math.Float64bits(w.Answer)
				for j := 0; same && j < len(w.Query.Center); j++ {
					same = math.Float64bits(g.Query.Center[j]) == math.Float64bits(w.Query.Center[j])
				}
				if !same {
					t.Fatalf("pair %d: scan %+v, reference %+v", i, g, w)
				}
			}
		}
		gotStatus, gotBody := post(t, scanned, body)
		wantStatus, wantBody := post(t, declined, body)
		if gotStatus != wantStatus || gotBody != wantBody {
			t.Fatalf("scanner path answered %d %s, encoding/json path %d %s", gotStatus, gotBody, wantStatus, wantBody)
		}
	})
}

// TestTrainScanCanonicalAndDeclines pins which side of the line the seed
// shapes fall on: a fuzz target that declined everything would pass
// FuzzTrainBody's equalities vacuously.
func TestTrainScanCanonicalAndDeclines(t *testing.T) {
	var tb trainBuf
	for _, tc := range []struct {
		body  string
		pairs int // 0: declined
	}{
		{string(benchTrainBody(256, 1)), 256},
		{" {\t\"pairs\"\n:\r[ { \"answer\" : -0 , \"theta\" : 1e-400 , \"center\" : [ 1E+2 , -0.0e-0 ] } ] } \n", 1},
		{`{"pairs":[{"center":[1e309],"theta":0,"answer":0}]}`, 0},
		{`{"pairs":[{"center":[01],"theta":0,"answer":0}]}`, 0},
		{`{"pairs":[{"center":[1],"theta":0,"answer":0,"answer":0}]}`, 0},
		{`{"pairs":[{"center":[1],"theta":0}]}`, 0},
		{`{"pairs":[{"center":[],"theta":0,"answer":0}]}`, 0},
		{`{"pairs":[{"center":[1],"theta":-1,"answer":0}]}`, 0},
		{`{"pairs":[{"center":[1],"theta":0,"answer":null}]}`, 0},
		{`{"pairs":[{"center":[1],"theta":0,"answer":0}]} x`, 0},
		{`{"pairs":[]}`, 0},
	} {
		pairs, ok := tb.scan([]byte(tc.body))
		if ok != (tc.pairs > 0) || len(pairs) != tc.pairs {
			t.Errorf("scan(%.60q): %d pairs, ok=%v; want %d", tc.body, len(pairs), ok, tc.pairs)
		}
	}
	at := strings.Repeat(`{"center":[1],"theta":0,"answer":0},`, maxTrainPairs)
	if pairs, ok := tb.scan([]byte(`{"pairs":[` + at[:len(at)-1] + `]}`)); !ok || len(pairs) != maxTrainPairs {
		t.Errorf("scan declined a body of exactly maxTrainPairs pairs")
	}
	if _, ok := tb.scan([]byte(`{"pairs":[` + at + `{"center":[1],"theta":0,"answer":0}]}`)); ok {
		t.Errorf("scan accepted maxTrainPairs+1 pairs")
	}
}

// BenchmarkTrainDecode compares the two decoders of a /train body on the
// benchmark's shape (256 d=2 pairs): the one-pass scanner into a reused
// trainBuf against encoding/json + convertPairs.
func BenchmarkTrainDecode(b *testing.B) {
	body := benchTrainBody(256, 1)
	b.Run("scanner", func(b *testing.B) {
		var tb trainBuf
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pairs, ok := tb.scan(body); !ok || len(pairs) != 256 {
				b.Fatal("scan declined the canonical body")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pairs, err := referencePairs(body); err != nil || len(pairs) != 256 {
				b.Fatal(err)
			}
		}
	})
}
