package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// inProcess is an http.RoundTripper that answers every request with h's
// ServeHTTP in this process: no socket and no listener, so `llmq query` and
// `llmq batch -data` reach the server's own handlers through the client loop
// `-url` uses. The handler writes into memory, and the response is returned
// once it has finished.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	w := &recorder{header: make(http.Header)}
	t.h.ServeHTTP(w, req)
	w.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)),
		StatusCode:    w.status,
		Header:        w.header,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// recorder is the http.ResponseWriter inProcess hands its handler.
type recorder struct {
	header http.Header
	status int // the first WriteHeader's; 0 until then
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
