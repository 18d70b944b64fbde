package wal

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzWALRecord checks the three framing invariants recovery depends on, for
// arbitrary record contents:
//
//  1. encode → scan round-trips the record bit-exactly (NaN included);
//  2. flipping any single bit of the payload region is rejected by the
//     checksum, with ValidSize pointing at the preceding record boundary;
//  3. any strict prefix of the encoding (a torn append) never yields the
//     record and never panics — the scanner reports a torn frame.
func FuzzWALRecord(f *testing.F) {
	f.Add(uint8(3), 0.5, 1.25, -3.0, uint16(9))
	f.Add(uint8(0), 0.0, 0.0, 0.0, uint16(0))
	f.Add(uint8(8), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, uint16(65535))
	f.Add(uint8(15), -0.0, 1e300, -1e-300, uint16(8))
	f.Fuzz(func(t *testing.T, dimSeed uint8, theta, answer, c0 float64, flip uint16) {
		dim := int(dimSeed % 16)
		center := make([]float64, dim)
		x := c0
		for i := range center {
			center[i] = x
			x = x*1.5 + 1 // deterministic spread from the one seeded value
		}
		rec := Record{Center: center, Theta: theta, Answer: answer}
		enc := appendRecord(nil, rec)
		if len(enc) != rec.EncodedLen() {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", len(enc), rec.EncodedLen())
		}

		// Round trip.
		sc := NewScanner(bytes.NewReader(enc))
		if !sc.Next() {
			t.Fatalf("clean record rejected: %v", sc.Err())
		}
		if got := sc.Record(); !recordsEqual(got, rec) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
		}
		if sc.Next() || sc.Err() != nil {
			t.Fatalf("trailing state after one record: %v", sc.Err())
		}
		if sc.ValidSize() != int64(len(enc)) {
			t.Fatalf("ValidSize %d, want %d", sc.ValidSize(), len(enc))
		}

		// Single-bit corruption in the payload region must fail the CRC.
		// (Header flips are covered by the prefix sweep and unit tests; a
		// length-field flip can legally present as a torn frame instead.)
		payloadLen := len(enc) - FrameHeaderLen
		pos := FrameHeaderLen + int(flip)%payloadLen
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 1 << (flip % 8)
		sc = NewScanner(bytes.NewReader(bad))
		if sc.Next() {
			t.Fatalf("bit flip at byte %d decoded as a valid record", pos)
		}
		if err := sc.Err(); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorruptRecord", pos, err)
		}
		if sc.ValidSize() != 0 {
			t.Fatalf("bit flip at byte %d: ValidSize %d, want 0", pos, sc.ValidSize())
		}

		// Torn-append sweep: a strict prefix must never produce the record.
		cut := int(flip) % len(enc)
		sc = NewScanner(bytes.NewReader(enc[:cut]))
		if sc.Next() {
			t.Fatalf("torn prefix of %d bytes decoded as a valid record", cut)
		}
		if sc.ValidSize() != 0 {
			t.Fatalf("torn prefix of %d bytes: ValidSize %d, want 0", cut, sc.ValidSize())
		}
		if cut == 0 {
			if sc.Err() != nil {
				t.Fatalf("empty input is a clean boundary, got %v", sc.Err())
			}
		} else if !errors.Is(sc.Err(), ErrCorruptRecord) {
			t.Fatalf("torn prefix of %d bytes: error %v does not wrap ErrCorruptRecord", cut, sc.Err())
		}
	})
}

// FuzzScannerBytes feeds raw bytes straight into the scanner: it must never
// panic, never allocate for an implausible length, and always report a
// ValidSize at a true record boundary within the input.
func FuzzScannerBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 0, 0, 0, 1, 2, 3, 4})
	f.Add(appendRecord(nil, Record{Center: []float64{1, 2}, Theta: 0.5, Answer: 3}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Next() {
			n++
		}
		valid := sc.ValidSize()
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("ValidSize %d outside input of %d bytes", valid, len(data))
		}
		// Rescanning the valid prefix must reproduce exactly the same records
		// with no error — that is the contract TruncateTorn relies on.
		sc = NewScanner(bytes.NewReader(data[:valid]))
		m := 0
		for sc.Next() {
			m++
		}
		if m != n || sc.Err() != nil {
			t.Fatalf("valid prefix rescans to %d records, err %v; want %d, nil", m, sc.Err(), n)
		}
	})
}
