package vector

// Chunked matrices: the copy-on-write prototype store keeps its rows in
// fixed-size chunks (ChunkRows rows each) so a writer can republish after a
// single-row update by copying one chunk instead of the whole matrix. The
// kernels below run the same unrolled argmin scans as the flat kernels, one
// contiguous chunk at a time, so chunking costs the search nothing but a
// per-chunk loop re-entry.

const (
	// ChunkShift is log2 of the chunk row count. 256 rows balances the two
	// publication costs: the per-write chunk copy (256·width floats) against
	// the per-publish chunk-pointer table copy (rows/256 pointers) — see the
	// write-path section of PERFORMANCE.md.
	ChunkShift = 8
	// ChunkRows is the number of rows per chunk.
	ChunkRows = 1 << ChunkShift
	// ChunkMask extracts a row's index within its chunk.
	ChunkMask = ChunkRows - 1
)

// Chunk is one fixed-size block of rows: the first ChunkRows·width values of
// Data are the rows themselves; owners may append additional per-row columns
// after that prefix (the prototype store packs coefficient rows and win
// counts there), which the kernels never touch. Chunks are referenced
// through a pointer so a chunk table costs one word per chunk to copy — the
// table copy is the per-publication price of the copy-on-write store, paid
// on every training pair.
type Chunk struct {
	Data []float64
}

// Chunked is a read-only view of a row-major matrix stored as fixed-size row
// chunks: chunk c holds rows [c·ChunkRows, (c+1)·ChunkRows) flattened into
// the prefix of one contiguous buffer (every chunk is allocated at full
// capacity; Rows bounds the valid rows). The zero value is the empty matrix;
// IsZero distinguishes it from a present-but-empty view.
type Chunked struct {
	width int
	rows  int
	data  []*Chunk
}

// NewChunked wraps an existing chunk table (no copying). Each chunk must hold
// at least ChunkRows·width values, except that the last may be shorter as
// long as it covers rows·width.
func NewChunked(width, rows int, data []*Chunk) Chunked {
	if width <= 0 {
		panic("vector: NewChunked requires positive width")
	}
	if rows < 0 || (rows+ChunkRows-1)/ChunkRows > len(data) {
		panic("vector: NewChunked chunk table too short for row count")
	}
	return Chunked{width: width, rows: rows, data: data}
}

// ChunkedFromFlat copies a flat row-major matrix into freshly allocated
// chunks — the test/bridge constructor, not a hot path.
func ChunkedFromFlat(flat []float64, width int) Chunked {
	if width <= 0 {
		panic("vector: ChunkedFromFlat requires positive width")
	}
	if len(flat)%width != 0 {
		panic("vector: ChunkedFromFlat length not a multiple of width")
	}
	rows := len(flat) / width
	data := make([]*Chunk, (rows+ChunkRows-1)/ChunkRows)
	for c := range data {
		buf := make([]float64, ChunkRows*width)
		copy(buf, flat[c*ChunkRows*width:])
		data[c] = &Chunk{Data: buf}
	}
	return Chunked{width: width, rows: rows, data: data}
}

// Width returns the row width.
func (m Chunked) Width() int { return m.width }

// Rows returns the number of valid rows.
func (m Chunked) Rows() int { return m.rows }

// IsZero reports whether the view is the zero value (no chunk table at all).
func (m Chunked) IsZero() bool { return m.data == nil && m.width == 0 }

// Row returns row i (valid for 0 <= i < Rows()).
func (m Chunked) Row(i int) []float64 {
	j := (i & ChunkMask) * m.width
	return m.data[i>>ChunkShift].Data[j : j+m.width]
}

// chunkSpan returns the flattened valid rows of chunk c: all ChunkRows rows
// for interior chunks, the partial tail for the last.
func (m Chunked) chunkSpan(c int) []float64 {
	rows := m.rows - c<<ChunkShift
	if rows > ChunkRows {
		rows = ChunkRows
	}
	return m.data[c].Data[:rows*m.width]
}

// ArgminSqDistanceChunkedRange returns the row of [lo, Rows()) closest to q
// and its squared L2 distance, scanning chunk by chunk with ArgminSqDistance's
// kernels, so a row's distance has the same bits as on the flat matrix. It
// carries a running best: a row replaces (best, bestSq) only when strictly
// nearer, so ties go to the seed, then to the lowest row. best < 0 with
// bestSq = +Inf means none; best < 0 with a finite bestSq is a pure cutoff.
// lo = 0 is the whole-matrix scan; lo > 0 is the tail scan of the winner
// search, over the rows appended since an index epoch was built.
func ArgminSqDistanceChunkedRange(m Chunked, q []float64, lo int, best int, bestSq float64) (int, float64) {
	if len(q) != m.width {
		panic(dimError("ArgminSqDistanceChunkedRange", len(q), m.width))
	}
	if lo < 0 {
		lo = 0
	}
	for c := lo >> ChunkShift; c<<ChunkShift < m.rows; c++ {
		base := c << ChunkShift
		span := m.chunkSpan(c)
		if lo > base {
			span = span[(lo-base)*m.width:]
			base = lo
		}
		if li, lsq := argminSeeded(span, m.width, q, -1, bestSq); li >= 0 {
			best, bestSq = base+li, lsq
		}
	}
	return best, bestSq
}
