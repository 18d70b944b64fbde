package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"

	"llmq/internal/core"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

// Every request stream is a pure function of (seed, workload, connection,
// request index): request i of a connection is drawn from its own
// counter-seeded generator, so a stream needs no storage, never wraps —
// a server that gets faster just reads further into the same sequence —
// and two runs with one seed send byte-identical requests in the same
// per-connection order.

// rng is a splitmix64 generator: tiny state, good enough mixing that
// consecutive counter seeds give independent-looking streams.
type rng struct{ s uint64 }

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// norm returns a standard normal draw (Box–Muller, one branch).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0, 1]
	v := r.float()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// streamTags keep the workloads' generators apart under one seed.
const (
	tagPool uint64 = iota + 1
	tagPoint
	tagSheet
	tagReader
	tagExact
	tagClusters
)

// newRNG seeds a generator for item i of stream (tag, conn) under seed.
func newRNG(seed int64, tag, conn, i uint64) *rng {
	r := &rng{s: uint64(seed)}
	r.s ^= r.u64() + tag
	r.s ^= r.u64() + conn
	r.s ^= r.u64() + i
	r.u64()
	return r
}

// Statement classes; a sample's class selects its latency histogram.
const (
	classApprox uint8 = iota
	classExact
)

// stmt is one generated statement.
type stmt struct {
	sql    string
	class  uint8
	repeat bool // drawn from the fixed pool, not fresh
}

// appendVec appends "(a, b, ...)" with six decimals: plain digits the
// sqlfront lexer reads without exponent forms, and coarse enough that the
// text is short while two fresh draws still never collide in practice.
func appendVec(dst []byte, v []float64) []byte {
	dst = append(dst, '(')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendFloat(dst, x, 'f', 6, 64)
	}
	return append(dst, ')')
}

// Statement kinds drawn by the generators.
const (
	kindAvg = iota
	kindValue
	kindRegression
)

// appendStatement renders one statement of the dialect over relation r1.
func appendStatement(dst []byte, approx bool, kind int, center []float64, theta float64, at []float64) []byte {
	dst = append(dst, "SELECT "...)
	if approx {
		dst = append(dst, "APPROX "...)
	}
	switch kind {
	case kindAvg:
		dst = append(dst, "AVG(u) FROM r1"...)
	case kindValue:
		dst = append(dst, "VALUE(u) FROM r1 AT "...)
		dst = appendVec(dst, at)
	default:
		dst = append(dst, "REGRESSION(u) FROM r1"...)
	}
	dst = append(dst, " WITHIN "...)
	dst = strconv.AppendFloat(dst, theta, 'f', 6, 64)
	dst = append(dst, " OF "...)
	return appendVec(dst, center)
}

// drawTheta is the radius rule shared by the d=2 workloads: the trainer's
// own N(0.1, 0.025) distribution, clipped so an EXACT statement always
// selects tuples (θ ≥ 0.03 covers ≥ 50 of 20 000 uniform rows) and never
// scans a quarter of the relation.
func drawTheta(r *rng) float64 {
	t := 0.1 + 0.025*r.norm()
	return math.Min(math.Max(t, 0.03), 0.2)
}

// drawCenter draws a centre in [0.05, 0.95]^d: inside the data box with
// room for the radius.
func drawCenter(r *rng, d int) []float64 {
	c := make([]float64, d)
	for j := range c {
		c[j] = 0.05 + 0.9*r.float()
	}
	return c
}

// pointKind is point_approx's statement mix: 70 % AVG, 20 % VALUE, 10 %
// REGRESSION.
func pointKind(r *rng) int {
	switch u := r.float(); {
	case u < 0.7:
		return kindAvg
	case u < 0.9:
		return kindValue
	default:
		return kindRegression
	}
}

// freshPoint draws one APPROX statement of the point_approx mix.
func freshPoint(r *rng) string {
	kind := pointKind(r)
	c := drawCenter(r, 2)
	theta := drawTheta(r)
	var at []float64
	if kind == kindValue {
		at = []float64{c[0] + 0.3*theta*(r.float()-0.5), c[1] + 0.3*theta*(r.float()-0.5)}
	}
	return string(appendStatement(nil, true, kind, c, theta, at))
}

const (
	pointPoolSize    = 64
	pointRepeatShare = 0.5
)

// pointStmt is request i of connection conn on point_approx: with
// probability pointRepeatShare one of the pointPoolSize pooled statements
// (the share a statement cache could serve), else a fresh unique one.
func pointStmt(seed int64, conn, i uint64) stmt {
	r := newRNG(seed, tagPoint, conn, i)
	if r.float() < pointRepeatShare {
		k := uint64(r.intn(pointPoolSize))
		return stmt{sql: freshPoint(newRNG(seed, tagPool, 0, k)), repeat: true}
	}
	return stmt{sql: freshPoint(r)}
}

// readerStmt is request i of train_durable's paced reader: a fresh APPROX
// AVG anywhere in the data box.
func readerStmt(seed int64, i uint64) stmt {
	r := newRNG(seed, tagReader, 0, i)
	return stmt{sql: string(appendStatement(nil, true, kindAvg, drawCenter(r, 2), drawTheta(r), nil))}
}

// exactStmt is request i of connection conn on exact_mixed. Requests come
// in pairs (2k, 2k+1) over one (centre, θ): one EXACT, one APPROX, of the
// same kind (80 % AVG, 20 % REGRESSION), their order drawn by the seed.
func exactStmt(seed int64, conn, i uint64) stmt {
	r := newRNG(seed, tagExact, conn, i/2)
	c := drawCenter(r, 2)
	theta := drawTheta(r)
	kind := kindAvg
	if r.float() >= 0.8 {
		kind = kindRegression
	}
	exactFirst := r.float() < 0.5
	exact := (i%2 == 0) == exactFirst
	s := stmt{sql: string(appendStatement(nil, !exact, kind, c, theta, nil))}
	if exact {
		s.class = classExact
	}
	return s
}

// Wide-model geometry: sheet_wide's prototypes and statements come from
// the same Gaussian clusters, so every statement overlaps many prototypes
// and the model call — not HTTP — is the work.
const (
	wideDim      = 8
	wideClusters = 32
	wideSigma    = 0.04
	sheetSize    = 256
)

// wideCenters are the seed's cluster centres: wideClusters distinct
// vertices of the cube {0.3, 0.7}^8, chosen by the seed. Any two are at
// least 0.4 apart — more than a cluster's radius (σ√8 ≈ 0.11) plus the
// largest θ on either side — so clusters never overlap and the work per
// statement has the same distribution under every seed; centres drawn at
// random made some seeds' clusters collide and their sheets 20 % dearer.
func wideCenters(seed int64) [][]float64 {
	r := newRNG(seed, tagClusters, 0, 0)
	taken := make(map[int]bool, wideClusters)
	out := make([][]float64, 0, wideClusters)
	for len(out) < wideClusters {
		v := r.intn(1 << wideDim)
		if taken[v] {
			continue
		}
		taken[v] = true
		c := make([]float64, wideDim)
		for j := range c {
			c[j] = 0.3 + 0.4*float64(v>>j&1)
		}
		out = append(out, c)
	}
	return out
}

// drawWide draws one query around a cluster: centre ~ N(cluster, σ²I),
// θ uniform in [0.05, 0.15].
func drawWide(r *rng, centers [][]float64) (center []float64, theta float64) {
	c := centers[r.intn(len(centers))]
	center = make([]float64, wideDim)
	for j := range center {
		center[j] = c[j] + wideSigma*r.norm()
	}
	return center, 0.05 + 0.1*r.float()
}

// sheetStmts is sheet i of connection conn on sheet_wide: sheetSize unique
// APPROX statements, 80 % AVG and 20 % VALUE.
func sheetStmts(seed int64, centers [][]float64, conn, i uint64) []string {
	r := newRNG(seed, tagSheet, conn, i)
	out := make([]string, sheetSize)
	var buf []byte
	for k := range out {
		c, theta := drawWide(r, centers)
		kind := kindAvg
		var at []float64
		if r.float() >= 0.8 {
			kind = kindValue
			at = make([]float64, wideDim)
			for j := range at {
				at[j] = c[j] + 0.01*r.norm()
			}
		}
		buf = appendStatement(buf[:0], true, kind, c, theta, at)
		out[k] = string(buf)
	}
	return out
}

// Wire format. Requests are rendered once as the exact bytes written to the
// socket; the Host header is a constant so the bytes do not depend on the
// child's ephemeral port.

func appendHTTP(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: llmq\r\n"...)
	if method == "POST" {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// queryWire renders POST /query for one statement. The generated SQL holds
// no character JSON would escape.
func queryWire(dst []byte, sql string) []byte {
	body := make([]byte, 0, len(sql)+12)
	body = append(body, `{"sql":"`...)
	body = append(body, sql...)
	body = append(body, `"}`...)
	return appendHTTP(dst, "POST", "/query", body)
}

// sheetWire renders POST /query/batch for one sheet.
func sheetWire(dst []byte, sqls []string) []byte {
	body := make([]byte, 0, len(sqls)*220)
	body = append(body, `{"sql":[`...)
	for i, s := range sqls {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '"')
		body = append(body, s...)
		body = append(body, '"')
	}
	body = append(body, `]}`...)
	return appendHTTP(dst, "POST", "/query/batch", body)
}

// trainBatchSize is the pair count of every /train request.
const trainBatchSize = 256

// trainStream is train_durable's whole input: batch 0 seeds the data
// directory in-process, batches 1.. are streamed over HTTP.
type trainStream struct {
	batches [][]core.TrainingPair
	wires   [][]byte // POST /train bytes of batches[i]
}

// driftAnswer is the closed-form "engine" answering the drifting stream:
// the sensor surface at the centre plus a radius term, so training needs no
// relation scan and the answer still depends on every query parameter.
func driftAnswer(center []float64, theta float64) float64 {
	return synth.SensorSurrogate(center) + 0.5*theta
}

// newTrainStream generates n batches from workload.DriftingGenerator
// (window 0.3 of the box, one crossing per 200 000 pairs). Floats are
// rendered in Go's shortest round-trip form, so the server decodes exactly
// the float64s the in-process reference model trains on.
func newTrainStream(seed int64, n int) (*trainStream, error) {
	gen, err := workload.NewDriftingGenerator(
		workload.GenConfig{Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: 0.025, Seed: seed},
		workload.DriftConfig{Window: 0.3, Velocity: 1.0 / 200000})
	if err != nil {
		return nil, err
	}
	ts := &trainStream{batches: make([][]core.TrainingPair, n), wires: make([][]byte, n)}
	var body []byte
	for b := range ts.batches {
		pairs := make([]core.TrainingPair, trainBatchSize)
		body = append(body[:0], `{"pairs":[`...)
		for k := range pairs {
			q := gen.Next()
			a := driftAnswer(q.Center, q.Theta)
			pairs[k] = core.TrainingPair{Query: q, Answer: a}
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"center":[`...)
			body = strconv.AppendFloat(body, q.Center[0], 'g', -1, 64)
			body = append(body, ',')
			body = strconv.AppendFloat(body, q.Center[1], 'g', -1, 64)
			body = append(body, `],"theta":`...)
			body = strconv.AppendFloat(body, q.Theta, 'g', -1, 64)
			body = append(body, `,"answer":`...)
			body = strconv.AppendFloat(body, a, 'g', -1, 64)
			body = append(body, '}')
		}
		body = append(body, `]}`...)
		ts.batches[b] = pairs
		ts.wires[b] = appendHTTP(nil, "POST", "/train", body)
	}
	return ts, nil
}

// hashPrefix is how many requests (sheets) per connection the printed
// stream hash covers; the streams are unbounded, their prefixes identify
// them.
const (
	hashPrefix       = 2048
	hashPrefixSheets = 16
)

// streamHash is the SHA-256 of the first request bytes of every connection
// of a workload (train_durable: of every batch of ts, and of the reader's
// prefix), the fingerprint the run header prints and the tests pin.
func streamHash(name string, seed int64, ts *trainStream) (string, error) {
	h := sha256.New()
	var buf []byte
	switch name {
	case wlPoint:
		for c := uint64(0); c < 2; c++ {
			for i := uint64(0); i < hashPrefix; i++ {
				buf = queryWire(buf[:0], pointStmt(seed, c, i).sql)
				h.Write(buf)
			}
		}
	case wlSheet:
		centers := wideCenters(seed)
		for c := uint64(0); c < 2; c++ {
			for i := uint64(0); i < hashPrefixSheets; i++ {
				buf = sheetWire(buf[:0], sheetStmts(seed, centers, c, i))
				h.Write(buf)
			}
		}
	case wlTrain:
		for _, w := range ts.wires {
			h.Write(w)
		}
		for i := uint64(0); i < hashPrefix; i++ {
			buf = queryWire(buf[:0], readerStmt(seed, i).sql)
			h.Write(buf)
		}
	case wlExact:
		for c := uint64(0); c < 2; c++ {
			for i := uint64(0); i < hashPrefix; i++ {
				buf = queryWire(buf[:0], exactStmt(seed, c, i).sql)
				h.Write(buf)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
