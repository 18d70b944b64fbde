package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"llmq/internal/core"
	"llmq/internal/index"
)

// stubRouter fronts one remote shard at d = 2 whose /shard/scan answers
// with whatever *body holds, and returns the router's reader and the
// shard's URL.
func stubRouter(t testing.TB, body *atomic.Pointer[[]byte]) (Reader, string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*body.Load())
	}))
	t.Cleanup(ts.Close)
	part, err := index.NewPartition(2, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(part, []Backend{NewRemote(ts.URL, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return s.Reader(context.Background()), ts.URL
}

// TestRemoteScanRefusesMalformedResult: a shard answering with terms no
// shard produces fails the read with an error that names the shard. The
// first case, a contribution without the model a regression asked for,
// used to panic the gather, and through /query/batch the whole router.
func TestRemoteScanRefusesMalformedResult(t *testing.T) {
	q := core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}
	const model = `{"Intercept":1,"Slope":[1,2],"Center":[0.5,0.5],"Theta":0.1}`
	cases := []struct {
		name, body string
		read       func(Reader) error
	}{
		{"missing model", `{"live":1,"contribs":[{"degree":1,"mean":2}],"max_theta":1}`,
			func(r Reader) error { _, err := r.Regression(q); return err }},
		{"missing winner model", `{"live":1,"winner_dist":0.3,"winner_mean":2,"max_theta":1}`,
			func(r Reader) error { _, err := r.Regression(q); return err }},
		{"short slope", `{"live":1,"contribs":[{"degree":1,"mean":2,"model":{"Slope":[1],"Center":[0.5,0.5]}}],"max_theta":1}`,
			func(r Reader) error { _, err := r.Regression(q); return err }},
		{"long centre", `{"live":1,"winner_dist":0.3,"winner_model":{"Slope":[1,2],"Center":[0,0,0]},"max_theta":1}`,
			func(r Reader) error { _, err := r.PredictMean(q); return err }},
		{"zero degree", `{"live":1,"contribs":[{"degree":0,"mean":2}],"max_theta":1}`,
			func(r Reader) error { _, err := r.PredictMean(q); return err }},
		{"negative degree", `{"live":2,"contribs":[{"degree":1,"value":2},{"degree":-1,"value":3}],"max_theta":1}`,
			func(r Reader) error { _, err := r.PredictValue(q, []float64{0.5, 0.5}); return err }},
		{"no live prototypes", `{"live":0,"contribs":[{"degree":1,"mean":2,"model":` + model + `}],"max_theta":1}`,
			func(r Reader) error { _, err := r.Regression(q); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var body atomic.Pointer[[]byte]
			b := []byte(c.body)
			body.Store(&b)
			r, url := stubRouter(t, &body)
			if err := c.read(r); err == nil || !strings.Contains(err.Error(), url) {
				t.Fatalf("read over %s: err = %v, want an error naming the shard", c.body, err)
			}
		})
	}

	// A well-formed answer of the same shapes still goes through.
	var body atomic.Pointer[[]byte]
	b := []byte(`{"live":1,"contribs":[{"degree":1,"mean":2,"model":` + model + `}],"max_theta":1}`)
	body.Store(&b)
	r, _ := stubRouter(t, &body)
	models, err := r.Regression(q)
	if err != nil || len(models) != 1 || models[0].Weight != 1 {
		t.Fatalf("well-formed result: models %+v, err %v", models, err)
	}
}

// FuzzRemoteScan serves arbitrary bytes as a shard's /shard/scan body: every
// read through the router returns an answer or an error, never a panic,
// and a regression answer's models have the set's dimension.
func FuzzRemoteScan(f *testing.F) {
	f.Add([]byte(`{"live":1,"contribs":[{"degree":1,"mean":2}],"max_theta":1}`))
	f.Add([]byte(`{"live":1,"contribs":[{"degree":0.5,"mean":2,"value":3,"model":{"Intercept":1,"Slope":[1,2],"Center":[0.5,0.5],"Theta":0.1}}],"max_theta":0.2}`))
	f.Add([]byte(`{"live":3,"winner_dist":0.3,"winner_mean":2,"winner_value":1,"winner_model":{"Slope":[1,2],"Center":[0,1]},"max_theta":1}`))
	f.Add([]byte(`{"live":0,"max_theta":0}`))
	f.Add([]byte(`{"live":1,"contribs":[{"degree":1e308,"mean":1},{"degree":1e308,"mean":1}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"live":1,"contribs":[`))

	var body atomic.Pointer[[]byte]
	empty := []byte{}
	body.Store(&empty)
	r, _ := stubRouter(f, &body)
	q := core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}
	f.Fuzz(func(t *testing.T, b []byte) {
		body.Store(&b)
		_, _ = r.PredictMean(q)
		_, _ = r.PredictValue(q, []float64{0.5, 0.5})
		models, err := r.Regression(q)
		if err != nil {
			return
		}
		for _, m := range models {
			if len(m.Slope) != 2 || len(m.Center) != 2 {
				t.Fatalf("regression answered a model of dim %d/%d from %q", len(m.Slope), len(m.Center), b)
			}
		}
	})
}
