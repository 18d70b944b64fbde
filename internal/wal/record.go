// Package wal implements the durability substrate of the streaming trainer:
// an append-only write-ahead log of training pairs plus atomically written,
// generation-numbered model snapshots, managed together so that a process
// killed at any instant recovers — newest valid snapshot, then replay of the
// log tail — to exactly the state it had durably reached.
//
// The package is deliberately model-agnostic: a record is a raw training
// pair ([]float64 centre, radius, answer), a snapshot is whatever bytes the
// caller's write callback produces, and recovery hands the caller a plan
// (candidate snapshots newest-first, log segments oldest-first) instead of
// interpreting either. internal/core layers Recover/Durable on top.
//
// # On-disk format
//
// A log segment is a sequence of records, each framed as
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32C (Castagnoli) of the payload
//	payload
//
// with the payload carrying a kind byte followed by the kind's body: a
// training pair (dimensionality as a uvarint, then the centre coordinates,
// radius and answer as raw IEEE-754 bits) or an admin record such as a
// runtime capacity change. The frame makes the
// expected crash artifact — a torn write at the tail — detectable: a read
// that runs out of bytes mid-record, or whose checksum does not match, stops
// the scan at the last intact record boundary instead of propagating garbage
// into the model.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Record is one logged event. Most records are training pairs (the query
// centre x, the query radius θ and the observed answer y); KindCapacity
// records log runtime re-capacity commands so that replay — recovery or a
// replication follower — re-applies them at exactly the same point in the
// training order. Records are value-complete: replaying them in order
// through the trainer reproduces the training run.
type Record struct {
	// Kind tags the payload. The zero value encodes as KindPair so existing
	// pair-constructing call sites stay valid.
	Kind Kind

	// Center is the query centre x ∈ R^d (KindPair).
	Center []float64
	// Theta is the query radius θ (KindPair).
	Theta float64
	// Answer is the observed query answer y (KindPair).
	Answer float64

	// MaxPrototypes is the new capacity bound (KindCapacity); 0 disables
	// the bound.
	MaxPrototypes int
	// Eviction names the eviction policy (KindCapacity); empty keeps the
	// model's current policy.
	Eviction string
	// EvictionHalfLife is the win-decay half-life in steps (KindCapacity);
	// 0 lets the applier derive it from the capacity.
	EvictionHalfLife int
	// Merge is the merge-on-evict setting (KindCapacity).
	Merge bool
}

// Kind discriminates record payloads. Unknown kinds are rejected as
// corruption — the safe failure for a durability log.
type Kind byte

const (
	// KindPair is a training pair; it is the zero Record's effective kind.
	KindPair Kind = 1
	// KindCapacity is a runtime SetCapacity command.
	KindCapacity Kind = 2
)

// effective maps the zero value to KindPair so Record{Center: ...} literals
// written before kinds existed still encode as pairs.
func (k Kind) effective() Kind {
	if k == 0 {
		return KindPair
	}
	return k
}

// maxRecordLen bounds a single record payload. Training pairs are tiny (a
// few hundred bytes even at high dimensionality); a length prefix beyond
// this is certainly corruption and must not drive a giant allocation.
const maxRecordLen = 1 << 20

// MaxCapacity and MaxHalfLife bound the cap and the eviction half-life a
// capacity record carries: a larger value does not decode (it reads as
// corruption), so a model must refuse to run under one.
const (
	MaxCapacity = maxRecordLen
	MaxHalfLife = 8 * maxRecordLen
)

// FrameHeaderLen is the fixed framing overhead per frame: the payload
// length and its CRC-32C.
const FrameHeaderLen = 8

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord tags every framing/decoding failure of the record
// scanner; CorruptError carries the offset and reason.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// CorruptError reports where and why a log scan stopped: the byte offset of
// the record that failed to decode (which is also the size of the valid
// prefix — the offset to truncate a torn tail at) and what failed.
type CorruptError struct {
	// Offset is the file offset of the first byte of the bad record; all
	// records before it decoded cleanly.
	Offset int64
	// Reason describes what failed (short read, checksum mismatch, bad
	// length, bad payload).
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorruptRecord) work.
func (e *CorruptError) Unwrap() error { return ErrCorruptRecord }

// OpenFrame appends a frame header placeholder to dst. The caller appends
// the payload behind it and calls SealFrame with the offset OpenFrame was
// called at, so a frame is built in place, in one pass. Log records and
// internal/core's checkpoint rows share this framing.
func OpenFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// SealFrame patches the header of the frame opened at dst[start:] with the
// length and CRC-32C of the payload, which runs to the end of dst.
func SealFrame(dst []byte, start int) {
	payload := dst[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
}

// ReadFrame splits the first frame off b, returning its checksum-verified
// payload (a subslice of b — nothing is allocated, so a forged length
// cannot size anything) and the bytes after it.
func ReadFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderLen {
		return nil, nil, fmt.Errorf("torn frame header (%d of %d bytes)", len(b), FrameHeaderLen)
	}
	length := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	b = b[FrameHeaderLen:]
	if uint64(length) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("torn payload (%d of %d bytes)", len(b), length)
	}
	if got := crc32.Checksum(b[:length], castagnoli); got != sum {
		return nil, nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	return b[:length], b[length:], nil
}

// appendRecord appends the framed encoding of r to dst and returns the
// extended slice.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = OpenFrame(dst)
	switch r.Kind.effective() {
	case KindCapacity:
		dst = append(dst, byte(KindCapacity))
		dst = binary.AppendUvarint(dst, uint64(r.MaxPrototypes))
		dst = binary.AppendUvarint(dst, uint64(r.EvictionHalfLife))
		if r.Merge {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = append(dst, r.Eviction...)
	default:
		dst = append(dst, byte(KindPair))
		dst = binary.AppendUvarint(dst, uint64(len(r.Center)))
		for _, v := range r.Center {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Theta))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Answer))
	}
	SealFrame(dst, start)
	return dst
}

// EncodedLen returns the on-disk size of the record: frame header plus
// payload.
func (r Record) EncodedLen() int {
	if r.Kind.effective() == KindCapacity {
		return FrameHeaderLen + 1 + uvarintLen(uint64(r.MaxPrototypes)) +
			uvarintLen(uint64(r.EvictionHalfLife)) + 1 + len(r.Eviction)
	}
	return FrameHeaderLen + 1 + uvarintLen(uint64(len(r.Center))) + 8*(len(r.Center)+2)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodePayload parses one record payload (the bytes after the frame
// header). It is strict: unknown kinds, short bodies and trailing garbage
// are all errors — a checksummed payload that still fails to parse means a
// writer bug or deliberate tampering, and either way must not be replayed.
func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, errors.New("empty payload")
	}
	switch Kind(p[0]) {
	case KindPair:
	case KindCapacity:
		return decodeCapacity(p[1:])
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", p[0])
	}
	p = p[1:]
	dim, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, errors.New("bad dimensionality varint")
	}
	p = p[n:]
	if dim > maxRecordLen/8 {
		return Record{}, fmt.Errorf("implausible dimensionality %d", dim)
	}
	want := 8 * (int(dim) + 2)
	if len(p) != want {
		return Record{}, fmt.Errorf("payload body is %d bytes, want %d for dim %d", len(p), want, dim)
	}
	r := Record{Kind: KindPair, Center: make([]float64, dim)}
	for i := range r.Center {
		r.Center[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	r.Theta = math.Float64frombits(binary.LittleEndian.Uint64(p[8*dim:]))
	r.Answer = math.Float64frombits(binary.LittleEndian.Uint64(p[8*dim+8:]))
	return r, nil
}

// decodeCapacity parses a KindCapacity payload body (the bytes after the
// kind byte). The trailing bytes, if any, are the policy name.
func decodeCapacity(p []byte) (Record, error) {
	r := Record{Kind: KindCapacity}
	max, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, errors.New("bad capacity varint")
	}
	p = p[n:]
	half, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, errors.New("bad half-life varint")
	}
	p = p[n:]
	if len(p) == 0 {
		return Record{}, errors.New("capacity record missing merge byte")
	}
	if p[0] > 1 {
		return Record{}, fmt.Errorf("bad merge byte %d", p[0])
	}
	// Capacities live in memory as ints; a value that does not round-trip is
	// corruption, not a configuration.
	if max > MaxCapacity || half > MaxHalfLife {
		return Record{}, fmt.Errorf("implausible capacity %d / half-life %d", max, half)
	}
	r.MaxPrototypes = int(max)
	r.EvictionHalfLife = int(half)
	r.Merge = p[0] == 1
	r.Eviction = string(p[1:])
	return r, nil
}

// Scanner reads framed records sequentially from a byte stream, tracking
// the offset of every record boundary so a torn tail can be located and
// truncated precisely.
type Scanner struct {
	r      io.Reader
	off    int64  // offset of the next unread byte
	valid  int64  // offset just past the last cleanly decoded record
	buf    []byte // the current frame: header, then payload
	err    error
	record Record
}

// NewScanner returns a scanner over r, which should read from the start of
// a log segment.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, FrameHeaderLen)}
}

// Next advances to the next record, returning false at the end of the
// stream — clean or torn; Err distinguishes. After Next returns true,
// Record returns the decoded record.
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	start := s.off
	n, err := io.ReadFull(s.r, s.buf[:FrameHeaderLen])
	s.off += int64(n)
	if err == io.EOF {
		return false // clean end exactly at a record boundary
	}
	if err != nil {
		s.err = &CorruptError{Offset: start, Reason: fmt.Sprintf("torn frame header (%d of %d bytes)", n, FrameHeaderLen)}
		return false
	}
	length := binary.LittleEndian.Uint32(s.buf)
	if length > maxRecordLen {
		s.err = &CorruptError{Offset: start, Reason: fmt.Sprintf("implausible payload length %d", length)}
		return false
	}
	s.buf = slices.Grow(s.buf[:FrameHeaderLen], int(length))
	// A short read shows up as ReadFrame's torn payload.
	n, _ = io.ReadFull(s.r, s.buf[FrameHeaderLen:FrameHeaderLen+int(length)])
	s.off += int64(n)
	payload, _, err := ReadFrame(s.buf[:FrameHeaderLen+n])
	if err != nil {
		s.err = &CorruptError{Offset: start, Reason: err.Error()}
		return false
	}
	rec, err := decodePayload(payload)
	if err != nil {
		s.err = &CorruptError{Offset: start, Reason: err.Error()}
		return false
	}
	s.record = rec
	s.valid = s.off
	return true
}

// Record returns the record decoded by the last successful Next. The centre
// slice is owned by the caller (freshly allocated per record).
func (s *Scanner) Record() Record { return s.record }

// Err returns nil after a clean end-of-stream, or the *CorruptError that
// stopped the scan.
func (s *Scanner) Err() error { return s.err }

// ValidSize returns the offset just past the last cleanly decoded record —
// the size to truncate a torn segment to.
func (s *Scanner) ValidSize() int64 { return s.valid }
