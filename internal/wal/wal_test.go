package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Center: []float64{float64(i), 0.5 * float64(i), -1.25},
		Theta:  0.1 * float64(i+1),
		Answer: 3.5 - float64(i),
	}
}

func encodeSegment(t *testing.T, records ...Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range records {
		before := len(buf)
		buf = appendRecord(buf, r)
		if got, want := len(buf)-before, r.EncodedLen(); got != want {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", got, want)
		}
	}
	return buf
}

func recordsEqual(a, b Record) bool {
	if len(a.Center) != len(b.Center) {
		return false
	}
	for i := range a.Center {
		if math.Float64bits(a.Center[i]) != math.Float64bits(b.Center[i]) {
			return false
		}
	}
	return math.Float64bits(a.Theta) == math.Float64bits(b.Theta) &&
		math.Float64bits(a.Answer) == math.Float64bits(b.Answer)
}

func TestRecordRoundTrip(t *testing.T) {
	records := []Record{
		testRecord(0),
		testRecord(1),
		{Center: []float64{}, Theta: 0, Answer: 0},
		{Center: []float64{math.NaN(), math.Inf(1)}, Theta: math.SmallestNonzeroFloat64, Answer: -0.0},
	}
	buf := encodeSegment(t, records...)
	sc := NewScanner(bytes.NewReader(buf))
	for i, want := range records {
		if !sc.Next() {
			t.Fatalf("scan stopped at record %d: %v", i, sc.Err())
		}
		if got := sc.Record(); !recordsEqual(got, want) {
			t.Fatalf("record %d round-tripped to %+v, want %+v", i, got, want)
		}
	}
	if sc.Next() {
		t.Fatal("scanner produced a record past the end")
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("clean stream ended with error: %v", err)
	}
	if got, want := sc.ValidSize(), int64(len(buf)); got != want {
		t.Fatalf("ValidSize %d, want %d", got, want)
	}
}

// TestScannerCorruption drives every corruption class through the scanner
// and checks the two recovery-critical outputs: the records before the
// corruption still decode, and ValidSize/Offset point exactly at the last
// intact record boundary (the truncation point).
func TestScannerCorruption(t *testing.T) {
	r0, r1 := testRecord(0), testRecord(1)
	clean := encodeSegment(t, r0, r1)
	first := int64(r0.EncodedLen()) // boundary after record 0

	cases := map[string]struct {
		mutate     func([]byte) []byte
		wantIntact int // records that must still decode
	}{
		"torn header": {func(b []byte) []byte {
			return b[:first+3]
		}, 1},
		"torn payload": {func(b []byte) []byte {
			return b[:int64(len(b))-5]
		}, 1},
		"payload bit flip": {func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}, 1},
		"stored checksum flip": {func(b []byte) []byte {
			b[first+4] ^= 0x01
			return b
		}, 1},
		"implausible length": {func(b []byte) []byte {
			b[first] = 0xff
			b[first+1] = 0xff
			b[first+2] = 0xff
			b[first+3] = 0x7f
			return b
		}, 1},
		"first record corrupt": {func(b []byte) []byte {
			b[FrameHeaderLen] ^= 0x01 // kind byte of record 0
			return b
		}, 0},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), clean...))
			sc := NewScanner(bytes.NewReader(buf))
			n := 0
			for sc.Next() {
				n++
			}
			if n != tc.wantIntact {
				t.Fatalf("decoded %d records, want %d", n, tc.wantIntact)
			}
			err := sc.Err()
			if err == nil {
				t.Fatal("corruption not reported")
			}
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("error %v does not wrap ErrCorruptRecord", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not a *CorruptError", err)
			}
			wantOff := int64(0)
			if tc.wantIntact == 1 {
				wantOff = first
			}
			if ce.Offset != wantOff {
				t.Fatalf("corruption located at offset %d, want %d", ce.Offset, wantOff)
			}
			if sc.ValidSize() != wantOff {
				t.Fatalf("ValidSize %d, want %d", sc.ValidSize(), wantOff)
			}
		})
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	// A failing writer must leave the previous content and no temp litter.
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("writer error not propagated: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "hello" {
		t.Fatalf("failed write clobbered the target: %q", b)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestListIgnoresTempFilesRemoveTempCleans pins the division of labor: List
// must leave temp files alone (it runs concurrently with live rotations —
// the replication shipper polls it, and deleting a rotation's in-flight
// temp file would fail the snapshot rename and flip the primary
// read-only), while RemoveTemp, called only from exclusive boot paths,
// clears the crash litter.
func TestListIgnoresTempFilesRemoveTempCleans(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "snap-000001.json.123.tmp")
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Snapshots) != 1 || m.Snapshots[0] != 1 {
		t.Fatalf("manifest %+v, want snapshot generation 1 only", m)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatal("List must not touch temp files; a live rotation may own them")
	}
	if err := RemoveTemp(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived RemoveTemp")
	}
	if _, err := os.Stat(SnapshotPath(dir, 1)); err != nil {
		t.Fatal("RemoveTemp deleted a published snapshot")
	}
}

// TestLogRotateAndReplay drives the full generation lifecycle: append,
// rotate twice (checking old generations are retired), and verify that both
// the newest-snapshot recovery plan and the fallback plan (previous
// snapshot + two segments) see a consistent record history.
func TestLogRotateAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Continue(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var logged []Record
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			r := testRecord(len(logged))
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			logged = append(logged, r)
		}
	}
	rotate := func(snapshot string) {
		t.Helper()
		if err := l.Rotate(func(w io.Writer) error {
			_, err := io.WriteString(w, snapshot)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendN(3)
	rotate("snap after 3")
	if l.Gen() != 1 {
		t.Fatalf("generation %d after first rotation, want 1", l.Gen())
	}
	appendN(2)
	rotate("snap after 5")
	appendN(4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("closing a closed log: %v", err)
	}

	m, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rotation to generation 2 retires generation 0; generation 1 stays as
	// the fallback.
	if want := []uint64{1, 2}; len(m.Snapshots) != 2 || m.Snapshots[0] != want[0] || m.Snapshots[1] != want[1] {
		t.Fatalf("snapshots %v, want %v", m.Snapshots, want)
	}
	if want := []uint64{1, 2}; len(m.Segments) != 2 || m.Segments[0] != want[0] || m.Segments[1] != want[1] {
		t.Fatalf("segments %v, want %v", m.Segments, want)
	}
	if b, err := os.ReadFile(SnapshotPath(dir, 2)); err != nil || string(b) != "snap after 5" {
		t.Fatalf("snapshot 2 holds %q, %v", b, err)
	}

	replayGen := func(gen uint64) []Record {
		t.Helper()
		var got []Record
		n, corrupt, err := Replay(SegmentPath(dir, gen), func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil || corrupt != nil {
			t.Fatalf("replay gen %d: n=%d corrupt=%v err=%v", gen, n, corrupt, err)
		}
		return got
	}
	// Newest plan: snapshot 2 (covers records 0..4) + segment 2 (records 5..8).
	if got := replayGen(2); len(got) != 4 || !recordsEqual(got[0], logged[5]) {
		t.Fatalf("segment 2 replay mismatch: %d records", len(got))
	}
	// Fallback plan: snapshot 1 (covers 0..2) + segment 1 (3..4) + segment 2.
	if got := replayGen(1); len(got) != 2 || !recordsEqual(got[0], logged[3]) {
		t.Fatalf("segment 1 replay mismatch: %d records", len(got))
	}
}

// TestContinueAfterInterruptedRotation reproduces a crash between the
// snapshot rename and the next segment's creation: Continue must open an
// empty segment matching the newest snapshot, not resurrect the old tail.
func TestContinueAfterInterruptedRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Continue(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the interruption: snapshot generation 1 exists, segment 1
	// does not.
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte("snap"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Continue(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Gen() != 1 {
		t.Fatalf("resumed at generation %d, want 1", l.Gen())
	}
	if fi, err := os.Stat(SegmentPath(dir, 1)); err != nil || fi.Size() != 0 {
		t.Fatalf("segment 1 not created empty: %v", err)
	}
}

func TestTruncateTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	buf := encodeSegment(t, testRecord(0), testRecord(1))
	// A torn third record: header + part of the payload.
	torn := append(append([]byte(nil), buf...), 0x20, 0, 0, 0, 1, 2, 3, 4, 0xAA)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	n, corrupt, err := Replay(path, func(Record) error { return nil })
	if err != nil || corrupt == nil || n != 2 {
		t.Fatalf("replay of torn segment: n=%d corrupt=%v err=%v", n, corrupt, err)
	}
	if err := TruncateTorn(path, corrupt.Offset); err != nil {
		t.Fatal(err)
	}
	n, corrupt, err = Replay(path, func(Record) error { return nil })
	if err != nil || corrupt != nil || n != 2 {
		t.Fatalf("replay after truncation: n=%d corrupt=%v err=%v", n, corrupt, err)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != int64(len(buf)) {
		t.Fatalf("truncated to %d bytes, want %d", fi.Size(), len(buf))
	}
}

// TestReplayCallbackError checks a callback error aborts the replay verbatim
// (recovery uses this to surface invalid-but-checksummed records).
func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	if err := os.WriteFile(path, encodeSegment(t, testRecord(0), testRecord(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n, corrupt, err := Replay(path, func(Record) error { return boom })
	if !errors.Is(err, boom) || corrupt != nil || n != 0 {
		t.Fatalf("callback error not propagated: n=%d corrupt=%v err=%v", n, corrupt, err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"": SyncGroup, "group": SyncGroup, "always": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("fsync-maybe"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestWriterSticky checks that a closed writer rejects further appends
// instead of silently dropping them.
func TestWriterSticky(t *testing.T) {
	dir := t.TempDir()
	l, err := Continue(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestGroupSyncFlushBatch checks the inline group-fsync path: FlushBatch
// appends force a sync without waiting for the timer.
func TestGroupSyncFlushBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Continue(dir, Options{Mode: SyncGroup, FlushBatch: 2, FlushInterval: 1000000000})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.w.mu.Lock()
	pending := l.w.pending
	l.w.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d records pending after hitting the flush batch twice", pending)
	}
}

// TestLegacySnapshotNames: a directory written before the binary snapshot
// format holds snap-NNNNNN.json. List reports it as a snapshot generation
// (once, even beside a .bin of the same generation), OpenSnapshot prefers
// the .bin and falls back to the .json, non-canonical spellings are not
// generations at all, and rotation retires the legacy file like any other.
func TestLegacySnapshotNames(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("snap-000001.json", "legacy 1")
	write("snap-000002.json", "legacy 2")
	write("snap-000002.bin", "binary 2")
	write("wal-000002.log", "")
	for _, stray := range []string{"snap-2.bin", "snap-0000003.bin", "snap-000003.bin.tmp", "snap-000003.txt", "wal-+00003.log"} {
		write(stray, "x")
	}
	m, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, Manifest{Snapshots: []uint64{1, 2}, Segments: []uint64{2}}) {
		t.Fatalf("manifest %+v", m)
	}
	for gen, want := range map[uint64]string{1: "legacy 1", 2: "binary 2"} {
		f, err := OpenSnapshot(dir, gen)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(f)
		f.Close()
		if string(b) != want {
			t.Errorf("OpenSnapshot(%d) read %q, want %q", gen, b, want)
		}
	}
	if _, err := OpenSnapshot(dir, 3); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenSnapshot of a missing generation: %v", err)
	}

	l, err := Continue(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2; i++ {
		if err := l.Rotate(func(w io.Writer) error { _, err := io.WriteString(w, "snap"); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if m, err = List(dir); err != nil || !reflect.DeepEqual(m, Manifest{Snapshots: []uint64{3, 4}, Segments: []uint64{3, 4}}) {
		t.Fatalf("after two rotations: %+v, %v", m, err)
	}
	for _, gone := range []string{"snap-000001.json", "snap-000002.json", "snap-000002.bin"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived rotation GC", gone)
		}
	}
}
