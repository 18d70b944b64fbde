package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"llmq/internal/wal"
)

// A model has one frame format with two writers, which share one encoder
// (encode) and differ only in where the rows come from:
//
//   - Checkpoint encodes the writer state under the writer lock, each
//     prototype's RLS solver state included: that makes "load a snapshot,
//     replay the WAL tail" bit-identical to a run that never stopped. The
//     durability snapshots and the replication bootstrap are its output.
//   - Save encodes one published snapshot, lock-free: the model file
//     query-processing nodes load without retraining. A reader cannot see
//     the solver state, so the rows carry none and the header says so.
//
// A file carries the full training clock — steps, per-prototype win counts
// and last-win stamps, the convergence window state — as a sequence of
// internal/wal frames (uint32 length, uint32 CRC-32C, payload), built in one
// pass from the flat rows:
//
//	header frame   "LLMQ", format version, flag bits (converged, the two
//	               update-rule switches, merge-on-evict, SGD solver, no
//	               solver state), then twelve little-endian uint64: dim,
//	               vigilance bits, γ bits, steps, quiet steps, last-Γ bits,
//	               min-γ steps, convergence window, capacity, eviction
//	               half-life, live K, row width; the eviction policy name
//	               fills the rest
//	K row frames   centre (d) and θ, intercept, slopes (d) and θ-slope as
//	               IEEE-754 bits, wins and last-win as uint64, one
//	               RLS-present byte and — for the RLS solver, unless the
//	               header says no solver state — the (d+2)²
//	               inverse-covariance floats (zero when absent)
//
// Every row frame of one file has the same width, so the header's K is
// checked against the bytes actually present before anything is sized by it.
// StateHash digests the same bytes with the row frames sorted.

const (
	checkpointMagic   = "LLMQ"
	checkpointVersion = 1
	// checkpointHeaderLen is the fixed part of the header payload: magic,
	// version byte, flag byte and twelve uint64 fields.
	checkpointHeaderLen = len(checkpointMagic) + 2 + 12*8
)

// The header's flag bits.
const (
	flagConverged = 1 << iota
	flagInitIntercept
	flagRateByPrototype
	flagMergeOnEvict
	flagSGD
	flagNoSolverState // Save: the rows carry no RLS solver state
	flagsEnd
)

// ErrBadModelFile is returned when a serialized model cannot be decoded or
// fails validation.
var ErrBadModelFile = errors.New("core: invalid model file")

// Save writes the model file query-processing nodes load: the frame format,
// encoded from one published snapshot — obtained with a single atomic load,
// no locking — so a model can be saved at a consistent version while
// serving queries and absorbing a training stream. The file holds the
// prototypes in slot order — birth order, since an eviction pass compacts
// the store — with their win counts and last-win stamps, so a Save/Load
// round trip keeps both the slot order and the eviction clock. The RLS
// solver state is NOT included — it is writer-locked state outside the
// published chunks, which a lock-free reader cannot serialize
// consistently — and the header records that: training on the
// loaded model restarts each prototype's solver, and Recover will not replay
// a WAL tail onto the file. Use Checkpoint when training must resume
// bit-identically.
func (m *Model) Save(w io.Writer) error {
	// Pair the capacity mirror with the snapshot consistently: read the
	// mirror on both sides of the snapshot load and retry until it was
	// stable across it. A concurrent SetCapacity in either direction (a
	// shrink pairing a stale large set with the new small cap, or a grow
	// pairing a stale small cap with a newly grown set — which Load's
	// over-cap enforcement would then wrongly evict) changes the mirror
	// pointer and forces another iteration; SetCapacity calls are rare, so
	// the loop converges immediately. Load additionally enforces the cap,
	// so even a hand-edited file cannot serve over-cap.
	cc := m.capCfg.Load()
	s := m.snap.Load()
	for {
		cc2 := m.capCfg.Load()
		if cc2 == cc {
			break
		}
		cc = cc2
		s = m.snap.Load()
	}
	var c checkpointBuf
	m.encode(&c, frameSource{table: &s.chunkTable, k: s.k,
		steps: s.steps, quietSteps: s.quietSteps, converged: s.converged, lastGamma: s.lastGamma}, cc)
	if _, err := w.Write(c.b); err != nil {
		return fmt.Errorf("core: write model: %w", err)
	}
	return nil
}

// checkpointBuf holds one encoded model file — the header frame, then one
// frame per prototype — and the scratch its canonical hash sorts in.
// Capturing into the same buffer again reuses its memory, which is how
// Durable rotates without allocating per prototype.
type checkpointBuf struct {
	b      []byte
	head   int      // length of the header frame
	stride int      // length of one row frame
	order  []rowKey // hash scratch: the rows, sorted by frame bytes
}

// rowKey orders row idx by its frame bytes: key holds the eight bytes after
// the length field (which every row shares) big-endian, so comparing keys
// is comparing bytes and the frames themselves only break ties.
type rowKey struct {
	key uint64
	idx int
}

// rowLen is the payload length of one row frame: centre and θ, the d+2
// coefficients, wins and last-win, the RLS-present byte and, when the rows
// carry the RLS solver state, its (d+2)² floats.
func rowLen(dim int, state bool) int {
	n := 8*(2*dim+5) + 1
	if state {
		n += 8 * (dim + 2) * (dim + 2)
	}
	return n
}

func appendFloats(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeFloats fills dst from the front of b, undoing appendFloats.
func decodeFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// frameSource is what one model file is encoded from: the writer's store
// and training clock (capture, under the writer lock, with the solver
// state) or one published snapshot (Save, lock-free, without it).
type frameSource struct {
	table             *chunkTable
	k                 int         // prototypes, in slots 0..k−1
	rls               [][]float64 // per-slot RLS solver state, read when withState
	withState         bool
	steps, quietSteps int
	converged         bool
	lastGamma         float64
}

// capture encodes the writer state into c under the writer lock —
// everything training touches, including each prototype's RLS
// inverse-covariance — straight from the store's flat rows.
func (m *Model) capture(c *checkpointBuf) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.store
	m.encode(c, frameSource{table: &s.chunkTable, k: s.k, rls: s.rls, withState: true,
		steps: m.steps, quietSteps: m.quietSteps, converged: m.converged, lastGamma: m.lastGamma}, m.capCfg.Load())
}

// encode writes src into c as one model file: the header frame from the
// training clock, the configuration and one capacity mirror, then one row
// frame per slot in slot order.
func (m *Model) encode(c *checkpointBuf, src frameSource, cc *capacityConfig) {
	// The capacity fields are runtime-mutable (SetCapacity); read them
	// through the lock-free mirror, never from m.cfg directly.
	// An uncapped model records no policy (newCapacity keeps none).
	maxK, halfLife := cc.max, cc.policy.HalfLife
	var eviction string
	if maxK > 0 {
		eviction = cc.policy.Name()
	}
	cfg := &m.cfg
	state := src.withState && cfg.CoefficientSolver == SolverRLS
	rowW := rowLen(cfg.Dim, state)
	c.stride = wal.FrameHeaderLen + rowW
	b := slices.Grow(c.b[:0], wal.FrameHeaderLen+checkpointHeaderLen+len(eviction)+src.k*c.stride)

	b = wal.OpenFrame(b)
	b = append(b, checkpointMagic...)
	var flags byte
	set := func(on bool, bit byte) {
		if on {
			flags |= bit
		}
	}
	set(src.converged, flagConverged)
	set(cfg.InitInterceptWithAnswer, flagInitIntercept)
	set(cfg.RateByPrototype, flagRateByPrototype)
	set(maxK > 0 && cc.merge, flagMergeOnEvict)
	set(cfg.CoefficientSolver == SolverSGD, flagSGD)
	set(!src.withState, flagNoSolverState)
	b = append(b, checkpointVersion, flags)
	for _, v := range [12]uint64{uint64(cfg.Dim), math.Float64bits(cfg.Vigilance), math.Float64bits(cfg.Gamma),
		uint64(src.steps), uint64(src.quietSteps), math.Float64bits(src.lastGamma), uint64(cfg.MinGammaSteps),
		uint64(cfg.ConvergenceWindow), uint64(maxK), uint64(halfLife), uint64(src.k), uint64(rowW)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, eviction...)
	wal.SealFrame(b, 0)
	c.head = len(b)

	t := src.table
	for i := 0; i < src.k; i++ {
		start := len(b)
		b = wal.OpenFrame(b)
		b = appendFloats(b, t.row(i))
		b = appendFloats(b, t.coefRow(i))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.win(i)))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.stamp(i)))
		if state && src.rls[i] != nil {
			b = appendFloats(append(b, 1), src.rls[i])
		} else {
			b = append(b, make([]byte, start+c.stride-len(b))...)
		}
		wal.SealFrame(b, start)
	}
	c.b = b
}

// hash digests the captured checkpoint canonically over slot numbering: the
// header frame, then the row frames in sorted byte order.
func (c *checkpointBuf) hash() string {
	rows := c.b[c.head:]
	frame := func(i int) []byte { return rows[i*c.stride:][:c.stride] }
	c.order = c.order[:0]
	for i := 0; i < len(rows)/c.stride; i++ {
		c.order = append(c.order, rowKey{binary.BigEndian.Uint64(frame(i)[4:]), i})
	}
	slices.SortFunc(c.order, func(a, b rowKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return bytes.Compare(frame(a.idx), frame(b.idx))
	})
	h := sha256.New()
	h.Write(c.b[:c.head])
	for _, r := range c.order {
		h.Write(frame(r.idx))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint writes the model in the binary checkpoint format, serializing
// the writer state under the writer lock, including each
// prototype's RLS inverse-covariance — everything training touches. A model
// loaded from a Checkpoint and fed the remainder of a training stream is
// bit-identical to one that consumed the whole stream without stopping,
// which is the property the durability layer's snapshots are built on
// (core.Recover replays the WAL tail on top of the newest checkpoint).
// Checkpoint briefly serializes with training writers — the lock covers the
// encoding, not the I/O behind w; readers stay lock-free throughout.
func (m *Model) Checkpoint(w io.Writer) error {
	var c checkpointBuf
	m.capture(&c)
	if _, err := w.Write(c.b); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// StateHash returns a SHA-256 hex digest of the model's canonical
// serialized state — everything Checkpoint persists, including the solver
// state and the eviction clock. It is canonical over slot numbering: the
// prototype rows are hashed in sorted order of their encoding, so models
// holding the same prototypes in another order (a Fuse of the same shards
// in another order) hash identically. Slot order is birth order, so two
// models that reached equal hashes by the same history — a model and its
// Checkpoint→Load round trip, a recovered or replicated one — answer bit
// for bit and share their future under the same training stream, which is
// what replication's divergence checks and the crash harness's
// bit-identity assertions compare. The error is always nil.
func (m *Model) StateHash() (string, error) {
	var c checkpointBuf
	m.capture(&c)
	return c.hash(), nil
}

// Load reads a model file written by Save or Checkpoint. The loaded model
// can answer queries; it can also continue training with the embedded
// configuration, resuming the eviction clock (and, for Checkpoint files, the
// exact solver state) where the file left off. Decode and validation
// failures return a descriptive ErrBadModelFile naming the frame or
// prototype that failed, so a truncated or corrupt file diagnoses itself.
func Load(r io.Reader) (*Model, error) { return load(r, false) }

// LoadSnapshot is Load for a snapshot a WAL tail will be replayed onto — a
// durable directory's on recovery, a replica's mirrored or shipped one. It
// also refuses an RLS-solver file written by Save: that file carries no
// solver state, so no tail replays onto it bit-identically.
func LoadSnapshot(r io.Reader) (*Model, error) { return load(r, true) }

// load is Load; resume makes it LoadSnapshot. Nothing is sized by a number
// the file merely claims: frames are subslices of the bytes read, and the
// header's K and row width must account for exactly the bytes present.
func load(r io.Reader, resume bool) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: read model frames: %v", ErrBadModelFile, err)
	}
	return decodeModel(b, resume)
}

// decodeModel is load over the bytes read.
func decodeModel(b []byte, resume bool) (*Model, error) {
	if len(b) < wal.FrameHeaderLen+len(checkpointMagic) || string(b[wal.FrameHeaderLen:][:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: not a frame-format model file (no %q header frame)", ErrBadModelFile, checkpointMagic)
	}
	p, rows, err := wal.ReadFrame(b)
	if err != nil {
		return nil, fmt.Errorf("%w: header frame: %v", ErrBadModelFile, err)
	}
	if len(p) < checkpointHeaderLen || p[len(checkpointMagic)] != checkpointVersion || p[len(checkpointMagic)+1] >= flagsEnd {
		return nil, fmt.Errorf("%w: header frame: unsupported version, unknown flags or short header", ErrBadModelFile)
	}
	h := fileHeader{flags: p[len(checkpointMagic)+1], eviction: string(p[checkpointHeaderLen:])}
	for i := range h.f {
		h.f[i] = binary.LittleEndian.Uint64(p[len(checkpointMagic)+2+8*i:])
	}
	m, err := newLoading(&h)
	if err != nil {
		return nil, err
	}
	d, rls := m.cfg.Dim, m.cfg.CoefficientSolver == SolverRLS
	state := rls && h.flags&flagNoSolverState == 0
	if resume && rls && !state {
		return nil, fmt.Errorf("%w: header frame: written by Save without the RLS solver state a WAL tail resumes from", ErrBadModelFile)
	}
	rowW := rowLen(d, state)
	stride := wal.FrameHeaderLen + rowW
	if h.f[11] != uint64(rowW) || len(rows)%stride != 0 || uint64(len(rows)/stride) != h.f[10] {
		return nil, fmt.Errorf("%w: header frame claims %d rows of %d bytes (want %d for dim %d), %d bytes follow it",
			ErrBadModelFile, h.f[10], h.f[11], rowW, d, len(rows))
	}
	vals := make([]float64, 2*d+3)
	for i := 0; len(rows) > 0; i++ {
		if p, rows, err = wal.ReadFrame(rows); err == nil && len(p) != rowW {
			err = fmt.Errorf("%d-byte payload, want %d", len(p), rowW)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row frame %d: %v", ErrBadModelFile, i, err)
		}
		// The payload's first 2d+3 floats are the row and the coefficient row
		// as the store lays them out; only the solver state, which the model
		// keeps, gets an allocation of its own.
		wins, rls := p[8*(2*d+3):], p[8*(2*d+5)+1:]
		present := p[8*(2*d+5)]
		if present > 1 || (present == 1 && !state) {
			return nil, fmt.Errorf("%w: LLM %d has a bad RLS-present byte %d", ErrBadModelFile, i, present)
		}
		decodeFloats(vals, p)
		var state []float64
		if present == 1 {
			state = make([]float64, len(rls)/8)
			decodeFloats(state, rls)
		}
		if err := m.addLoaded(vals, int(binary.LittleEndian.Uint64(wins)), int(binary.LittleEndian.Uint64(wins[8:])), state); err != nil {
			return nil, err
		}
	}
	m.finishLoad()
	return m, nil
}

// fileHeader is a decoded header frame: its flag bits, its twelve fields in
// the order encode writes them, and the eviction policy name.
type fileHeader struct {
	flags    byte
	f        [12]uint64
	eviction string
}

// maxLoadDim bounds the dimensionality a file may claim, keeping the row
// width arithmetic far from overflow.
const maxLoadDim = 1 << 20

// exactInt reports whether a counter is non-negative and survives the
// store's float64 columns unchanged.
func exactInt(v int) bool { return v >= 0 && int(float64(v)) == v }

// newLoading validates a decoded header and returns the empty model, at the
// file's configuration and training clock, that its prototypes are then
// added to.
func newLoading(h *fileHeader) (*Model, error) {
	f := &h.f
	dim, rho, gamma, lastGamma := int(f[0]), math.Float64frombits(f[1]), math.Float64frombits(f[2]), math.Float64frombits(f[5])
	if dim <= 0 || dim > maxLoadDim || !(rho > 0) || !(gamma > 0) || math.IsInf(rho, 0) || math.IsInf(gamma, 0) || math.IsNaN(lastGamma) {
		return nil, fmt.Errorf("%w: non-positive or non-finite dim/vigilance/gamma", ErrBadModelFile)
	}
	steps, quietSteps := int(f[3]), int(f[4])
	if !exactInt(steps) || !exactInt(quietSteps) {
		return nil, fmt.Errorf("%w: negative step counters (steps %d, quiet %d)", ErrBadModelFile, steps, quietSteps)
	}
	cfg := Config{
		Dim:                     dim,
		Vigilance:               rho,
		Gamma:                   gamma,
		InitInterceptWithAnswer: h.flags&flagInitIntercept != 0,
		RateByPrototype:         h.flags&flagRateByPrototype != 0,
		MinGammaSteps:           int(f[6]),
		ConvergenceWindow:       int(f[7]),
	}
	if h.flags&flagSGD != 0 {
		cfg.CoefficientSolver = SolverSGD
	}
	if maxK := int(f[8]); maxK > 0 {
		cfg.MaxPrototypes = maxK
		cfg.MergeOnEvict = h.flags&flagMergeOnEvict != 0
		var err error
		if cfg.Eviction, err = decodeEviction(h.eviction, int(f[9])); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	m.steps, m.store.step = steps, steps
	m.converged = h.flags&flagConverged != 0
	m.quietSteps = quietSteps
	m.lastGamma = lastGamma
	return m, nil
}

// addLoaded validates one decoded prototype — vals is its row [x, θ] then
// its coefficient row [y, b_X, b_Θ], copied; p its solver state, kept — and
// inserts it into the model under construction.
func (m *Model) addLoaded(vals []float64, wins, lastWin int, p []float64) error {
	i, d := m.store.k, m.cfg.Dim
	// A negative radius is invalid (NewQuery enforces θ ≥ 0).
	if vals[d] < 0 {
		return fmt.Errorf("%w: LLM %d has negative radius %v", ErrBadModelFile, i, vals[d])
	}
	finite := func(vs []float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if !finite(vals) {
		return fmt.Errorf("%w: LLM %d contains non-finite values", ErrBadModelFile, i)
	}
	if !exactInt(wins) || lastWin < 0 || lastWin > m.steps {
		return fmt.Errorf("%w: LLM %d has win count %d, last-win stamp %d outside [0, %d]", ErrBadModelFile, i, wins, lastWin, m.steps)
	}
	if len(p) == 0 {
		p = nil // re-initialized lazily on the next RLS update
	} else if n := (d + 2) * (d + 2); len(p) != n {
		return fmt.Errorf("%w: LLM %d RLS state has %d values, want %d", ErrBadModelFile, i, len(p), n)
	} else if !finite(p) {
		return fmt.Errorf("%w: LLM %d RLS state contains non-finite values", ErrBadModelFile, i)
	}
	m.store.insert(slotState{row: vals[:d+1], coef: vals[d+1:], wins: wins, stamp: lastWin, p: p})
	return nil
}

// finishLoad turns the inserted prototypes into the first serving version.
func (m *Model) finishLoad() {
	// Enforce the file's capacity before the first publication: a file can
	// carry more prototypes than its cap (a checkpoint racing a SetCapacity
	// shrink, or a hand-edited document), and a pure-serving process would
	// otherwise stay over-cap forever — no spawn ever runs to trigger the
	// eviction pass. The pass builds the survivors' epoch itself; otherwise
	// build the one epoch the bulk load deferred (a no-op drop below the
	// size gates).
	if m.evictLocked(-1) == 0 {
		m.store.rebuildEpoch()
	}
	m.publishLocked()
}
