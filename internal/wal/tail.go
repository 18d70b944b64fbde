package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// Cursor addresses a position in a data directory's log: a byte offset into
// one generation's segment. The zero cursor is the start of segment 0. A
// cursor produced by TailRead always sits on a record boundary, so a reader
// that resumes from it never sees a half record.
type Cursor struct {
	// Gen is the segment generation.
	Gen uint64
	// Off is the byte offset into that segment.
	Off int64
}

// String renders the cursor for logs and errors.
func (c Cursor) String() string { return fmt.Sprintf("gen %d off %d", c.Gen, c.Off) }

// ErrCursorGone reports that a cursor can no longer be served from the
// directory: its segment was garbage-collected by rotation, or the segment
// shrank below the offset (the writer crashed and recovery truncated a torn
// tail the cursor had already advanced past). Either way the reader's copy
// has no future in this log — it must re-bootstrap from a snapshot.
var ErrCursorGone = errors.New("wal: cursor is no longer served by this log")

// DefaultTailChunk is the default byte budget of one TailRead.
const DefaultTailChunk = 256 << 10

// TailChunk is the result of one TailRead: zero or more complete framed
// records and the cursor to resume from.
type TailChunk struct {
	// Data holds complete framed records — a byte-exact slice of the
	// segment — or nil when nothing new was readable.
	Data []byte
	// Next is the cursor after Data. Next.Gen > the request's generation
	// (with empty Data) signals a rotation boundary: the old segment is
	// fully consumed and sealed, and reading resumes at the next
	// generation's start. Next equal to the request cursor means nothing
	// new yet — poll again.
	Next Cursor
}

// TailRead reads complete records from the segment at cur, up to max bytes
// (DefaultTailChunk if max <= 0). It ships only the CRC-valid prefix of
// what is on disk — an in-progress append's torn tail is left for the next
// call — so the bytes it returns are final: they will never be truncated by
// the writer's own crash recovery once the segment seals. One call returns
// either data within cur.Gen, or a bare generation bump once the sealed
// segment is fully consumed, never both.
//
// Errors: ErrCursorGone when the cursor's segment was GCed or truncated
// below cur.Off; ErrCorruptRecord when a sealed segment ends in bytes that
// do not scan (storage corruption — a sealed segment ends on a record
// boundary by construction).
func TailRead(dir string, cur Cursor, max int) (TailChunk, error) {
	if max <= 0 {
		max = DefaultTailChunk
	}
	// One retry: detecting "sealed" after seeing no new bytes must re-check
	// the size, because records may have landed between the stat and the
	// rotation that sealed the segment.
	for attempt := 0; ; attempt++ {
		chunk, tornSealed, err := tailReadOnce(dir, cur, max)
		if err != nil {
			return TailChunk{}, err
		}
		if len(chunk.Data) > 0 || chunk.Next != cur {
			return chunk, nil
		}
		if !tornSealed {
			return chunk, nil
		}
		if attempt > 0 {
			// Still unscannable after the re-read: a sealed segment ends on
			// a record boundary by construction, so this is storage
			// corruption, not an append in flight.
			return TailChunk{}, &CorruptError{Offset: cur.Off, Reason: fmt.Sprintf("sealed segment %d ends in unscannable bytes", cur.Gen)}
		}
	}
}

func tailReadOnce(dir string, cur Cursor, max int) (TailChunk, bool, error) {
	path := SegmentPath(dir, cur.Gen)
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return TailChunk{}, false, err
		}
		// Rotation GC deleted the generation (or it never existed): the
		// cursor is too far behind to serve incrementally.
		return TailChunk{}, false, fmt.Errorf("%w: segment %d is gone", ErrCursorGone, cur.Gen)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return TailChunk{}, false, err
	}
	size := fi.Size()
	if cur.Off > size {
		return TailChunk{}, false, fmt.Errorf("%w: segment %d is %d bytes, cursor offset %d (torn tail truncated behind the reader)",
			ErrCursorGone, cur.Gen, size, cur.Off)
	}
	if size > cur.Off {
		data, err := readValid(f, cur.Off, size, max)
		if err != nil {
			return TailChunk{}, false, err
		}
		if len(data) > 0 {
			return TailChunk{Data: data, Next: Cursor{Gen: cur.Gen, Off: cur.Off + int64(len(data))}}, false, nil
		}
	}
	// No complete new record. The segment is sealed — its bytes final — once
	// any newer generation exists: Rotate fsyncs the tail before publishing
	// snapshot gen+1.
	m, err := List(dir)
	if err != nil {
		return TailChunk{}, false, err
	}
	sealed := false
	for _, g := range m.Segments {
		sealed = sealed || g > cur.Gen
	}
	for _, g := range m.Snapshots {
		sealed = sealed || g > cur.Gen
	}
	if !sealed {
		// Live tail: either fully consumed or ending in an in-progress
		// append. Poll again.
		return TailChunk{Next: cur}, false, nil
	}
	if size > cur.Off {
		// Sealed segments end at a record boundary; leftover unscannable
		// bytes are corruption, not a pending write. (The caller retries
		// once first — the bytes may simply have landed after our scan.)
		return TailChunk{Next: cur}, true, nil
	}
	return TailChunk{Next: Cursor{Gen: cur.Gen + 1}}, false, nil
}

// readValid reads up to max bytes at off and returns the prefix that scans
// as complete records. If the first record alone overflows max, the budget
// is retried at the largest legal record size so progress is always
// possible.
func readValid(f *os.File, off, size int64, max int) ([]byte, error) {
	for {
		n := size - off
		if n > int64(max) {
			n = int64(max)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
			return nil, fmt.Errorf("wal: tail read: %w", err)
		}
		sc := NewScanner(bytes.NewReader(buf))
		for sc.Next() {
		}
		if valid := sc.ValidSize(); valid > 0 {
			return buf[:valid], nil
		}
		if errors.Is(sc.Err(), ErrCorruptRecord) && n == size-off {
			// The whole remainder is on the table and still no record
			// completes: a torn in-progress append (or, on a sealed
			// segment, corruption — the caller decides which).
			return nil, nil
		}
		if n == size-off || n >= int64(maxRecordLen+FrameHeaderLen) {
			return nil, nil
		}
		max = maxRecordLen + FrameHeaderLen
	}
}
