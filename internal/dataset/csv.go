package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"llmq/internal/decimal"
)

// blockSize is how many bytes of the input one block holds before it is cut
// at its last record boundary; a record longer than that grows its block.
const blockSize = 64 << 10

// Relation is a relation parsed from CSV and held flat, the layout the
// exact executor indexes: row i's inputs are X[i*Dim():(i+1)*Dim()] and its
// output is U[i]. Every value is finite, the attribute names are non-empty
// and unique, and Bounds covers every row.
type Relation struct {
	Name       string
	InputNames []string
	OutputName string
	X          []float64 // row-major inputs, Len()·Dim() values
	U          []float64 // the output column
	Bounds     Bounds
}

// Dim returns the input dimensionality.
func (r *Relation) Dim() int { return len(r.InputNames) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.U) }

// ParseCSV reads a relation written by WriteCSV: a header row of d input
// names plus one output name, followed by numeric rows. It accepts what
// encoding/csv accepts with its defaults (comma separator, quoted fields
// with "" escapes that may span lines, \r\n line ends, blank lines skipped)
// and refuses what it refuses, with csv.ParseError's text. It refuses a
// non-finite value, naming its physical line and field, and an empty or
// repeated attribute name. Attribute names are trimmed of surrounding
// white space.
//
// One goroutine reads rd into at most 2·GOMAXPROCS+1 blocks of blockSize
// bytes, each cut after its last newline outside quotes; GOMAXPROCS workers
// tokenize the blocks and parse their fields; the caller copies the blocks
// into X and U in file order and returns the first error in file order, so
// the rows and the refusal do not depend on how many workers ran. A worker
// reads a plain number ended by a comma or a newline where it lies in the
// block (decimal.Prefix), in one pass with no copy; any other field goes to
// the block scanner from the same byte, which keeps every refusal's text,
// line and column.
// When rd can report its size (an *os.File), X and U are sized once from
// the length of the first row instead of grown by append.
func ParseCSV(name string, rd io.Reader) (*Relation, error) {
	return parseCSV(name, rd, blockSize)
}

// parseCSV is ParseCSV with blocks of size bytes.
func parseCSV(name string, rd io.Reader, size int) (*Relation, error) {
	procs := runtime.GOMAXPROCS(0)
	p := &parser{rd: rd, size: size, line: 1}
	first := p.newBlock()
	header, err := p.header(first)
	if err != nil {
		return nil, err
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: header must have at least 2 columns, got %d", len(header))
	}
	for j, c := range header {
		header[j] = strings.TrimSpace(c)
	}
	dim := len(header) - 1
	r := &Relation{Name: name, InputNames: header[:dim:dim], OutputName: header[dim]}
	seen := make(map[string]bool, dim+1)
	for j, c := range append(r.InputNames, r.OutputName) {
		if c == "" {
			return nil, fmt.Errorf("dataset: column %d has an empty name", j+1)
		}
		if seen[c] {
			return nil, fmt.Errorf("dataset: duplicate column %q", c)
		}
		seen[c] = true
	}
	headerEnd := p.off

	// A channel holds at most the blocks made (order also a read error's),
	// so no send blocks.
	p.dim, p.blocks = dim, 2*procs+1
	p.free, p.work, p.order = make(chan *block, p.blocks), make(chan *block, p.blocks), make(chan *block, p.blocks+1)
	p.stop = make(chan struct{})
	p.wg.Add(1 + procs)
	go p.read(first)
	for range procs {
		go p.parseBlocks()
	}
	defer p.wg.Wait()
	defer close(p.stop)

	sized := false
	for b := range p.order {
		<-b.done
		if b.err != nil {
			return nil, b.err
		}
		if len(b.u) > 0 {
			if !sized {
				sized = true
				if rows := estimateRows(rd, headerEnd, b.firstEnd); rows > 0 {
					r.X, r.U = make([]float64, 0, rows*dim), make([]float64, 0, rows)
				}
				r.Bounds = Bounds{InputMin: slices.Clone(b.bounds.InputMin), InputMax: slices.Clone(b.bounds.InputMax), OutputMin: b.bounds.OutputMin, OutputMax: b.bounds.OutputMax}
			} else {
				r.Bounds.merge(&b.bounds)
			}
			r.X, r.U = append(r.X, b.x...), append(r.U, b.u...)
		}
		p.free <- b
	}
	if len(r.U) == 0 {
		return nil, ErrEmpty
	}
	return r, nil
}

// block is a stretch of the input that starts at a record boundary and ends
// at one or at the end of the input, and the rows a worker parsed from it.
type block struct {
	buf  []byte
	off  int64 // input offset of buf[0]
	line int   // physical line of buf[0]
	eof  bool  // buf ends where the input, or what is worth reading of it, ends

	x, u     []float64 // the rows: inputs row-major, outputs
	bounds   Bounds    // of the rows, when there are any
	firstEnd int64     // input offset just past the first row
	err      error     // the first refusal in buf
	done     chan struct{}
}

// parser is the state of one ParseCSV call. The fields under "reader" are
// the reading goroutine's alone once it has started.
type parser struct {
	rd     io.Reader
	size   int
	dim    int
	blocks int // blocks in flight at most
	made   int

	// reader
	scan    int   // bytes of the filling block scanned for quotes
	quoted  bool  // the scan stands inside a quoted field
	cut     int   // the end of the filling block's last whole record, or 0
	bad     bool  // the scan met a quote encoding/csv refuses
	eof     bool  // rd is exhausted
	readErr error // rd failed
	off     int64 // input offset of the filling block's first byte
	line    int   // physical line of the filling block's first byte

	free, work, order chan *block
	stop              chan struct{} // closed once the caller has its answer
	wg                sync.WaitGroup
}

func (p *parser) newBlock() *block {
	p.made++
	return &block{buf: make([]byte, 0, p.size), done: make(chan struct{}, 1)}
}

// header fills b until it holds the first record, returns that record's
// fields and leaves in b only the bytes after it.
func (p *parser) header(b *block) ([]string, error) {
	for {
		p.fill(b)
		end, final := p.cut, p.eof || p.bad
		if final {
			end = len(b.buf)
		}
		s := scanner{data: b.buf[:end], eof: final, line: p.line}
		if s.record() {
			var names []string
			for last := false; !last; {
				f, _, l, err := s.field()
				if err != nil {
					return nil, fmt.Errorf("dataset: read header: %w", err)
				}
				names, last = append(names, string(f)), l
			}
			p.consume(b, s.pos, s.line)
			return names, nil
		}
		switch {
		case final:
			return nil, fmt.Errorf("dataset: read header: %w", io.EOF)
		case p.readErr != nil:
			return nil, fmt.Errorf("dataset: read header: %w", p.readErr)
		}
		p.consume(b, s.pos, s.line) // blank lines
	}
}

// consume drops b's first n bytes, which end on physical line line.
func (p *parser) consume(b *block, n, line int) {
	b.buf = b.buf[:copy(b.buf, b.buf[n:])]
	p.off += int64(n)
	p.line = line
	p.scan = max(p.scan-n, 0)
	p.cut = max(p.cut-n, 0)
}

// read cuts the input into blocks and hands them to the workers and, in
// file order, to the caller, until the input ends or the caller stops.
func (p *parser) read(b *block) {
	defer p.wg.Done()
	defer close(p.work)
	defer close(p.order)
	for {
		p.fill(b)
		if p.eof || p.bad {
			// After a refused quote the rest is not worth reading: the worker
			// meets the refusal before it reaches the end of b.
			p.send(b, true)
			return
		}
		if p.readErr != nil {
			b.buf = b.buf[:p.cut]
			p.send(b, false)
			e := &block{err: fmt.Errorf("dataset: read line %d: %w", p.line, p.readErr), done: make(chan struct{}, 1)}
			e.done <- struct{}{}
			p.order <- e
			return
		}
		next := p.get()
		if next == nil {
			return
		}
		next.buf = append(next.buf[:0], b.buf[p.cut:]...)
		b.buf = b.buf[:p.cut]
		p.scan -= p.cut
		p.cut = 0
		p.send(b, false)
		b = next
	}
}

// get returns a block to fill, nil once the caller has stopped.
func (p *parser) get() *block {
	if p.made < p.blocks {
		select {
		case <-p.stop:
			return nil
		default:
			return p.newBlock()
		}
	}
	select {
	case b := <-p.free:
		return b
	case <-p.stop:
		return nil
	}
}

// send hands b, which starts where the last block sent ended, to the
// workers and the caller.
func (p *parser) send(b *block, eof bool) {
	b.off, b.line, b.eof = p.off, p.line, eof
	p.off += int64(len(b.buf))
	p.line += bytes.Count(b.buf, []byte{'\n'})
	p.work <- b
	p.order <- b
}

// fill reads into b until it holds a whole record, rd ends or fails, or the
// scan meets a quote encoding/csv refuses.
func (p *parser) fill(b *block) {
	for {
		if n := len(b.buf); n < cap(b.buf) && !p.eof && p.readErr == nil {
			m, err := io.ReadFull(p.rd, b.buf[n:cap(b.buf)])
			b.buf = b.buf[:n+m]
			switch err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				p.eof = true
			default:
				p.readErr = err
			}
		}
		p.scanQuotes(b.buf)
		if p.cut > 0 || p.eof || p.readErr != nil || p.bad {
			return
		}
		b.buf = slices.Grow(b.buf, p.size)
	}
}

// scanQuotes moves the scan through buf from p.scan, following encoding/csv's
// quoting, and sets p.cut past every newline outside quotes. A quote whose
// meaning depends on bytes not yet read stops the scan until they are.
func (p *parser) scanQuotes(buf []byte) {
	for p.scan < len(buf) && !p.bad {
		q := bytes.IndexByte(buf[p.scan:], '"')
		if !p.quoted {
			end := len(buf)
			if q >= 0 {
				end = p.scan + q
			}
			if nl := bytes.LastIndexByte(buf[p.scan:end], '\n'); nl >= 0 {
				p.cut = p.scan + nl + 1
			}
			if q < 0 {
				p.scan = end
				return
			}
			// A quote opens a field only at the field's start.
			p.bad = end > 0 && buf[end-1] != ',' && buf[end-1] != '\n'
			p.quoted, p.scan = true, end+1
			continue
		}
		if q < 0 {
			p.scan = len(buf)
			return
		}
		q += p.scan
		rest := buf[q+1:]
		switch {
		case len(rest) > 0 && rest[0] == '"':
			p.scan = q + 2 // an escaped quote
		case len(rest) > 0 && (rest[0] == ',' || rest[0] == '\n'),
			len(rest) > 1 && rest[0] == '\r' && rest[1] == '\n',
			p.eof && (len(rest) == 0 || len(rest) == 1 && rest[0] == '\r'):
			p.quoted, p.scan = false, q+1
		case len(rest) == 0 || len(rest) == 1 && rest[0] == '\r':
			p.scan = q // decided by the next byte read
			return
		default:
			p.bad = true
		}
	}
}

// parseBlocks parses the blocks handed to it until there are no more.
func (p *parser) parseBlocks() {
	defer p.wg.Done()
	for b := range p.work {
		select {
		case <-p.stop: // the caller has its answer: skip the work
		default:
			b.err = p.parse(b)
		}
		b.done <- struct{}{}
	}
}

// parse tokenizes b's records and parses their fields into b.x and b.u,
// returning the first refusal. Within a record a malformed field or a wrong
// field count takes precedence over a bad value, as with encoding/csv,
// which reads the whole record before its fields are parsed.
func (p *parser) parse(b *block) error {
	b.x, b.u, b.firstEnd = b.x[:0], b.u[:0], -1
	s := scanner{data: b.buf, eof: b.eof, line: b.line}
	dim := p.dim
	for s.record() {
		at := len(b.x)
		var bad error
		n := 0
		for last := false; !last; n++ {
			if n <= dim && bad == nil {
				// A plain number ended by a comma or a newline is read where
				// it lies; anything else goes to the scanner from here.
				if v, m, ok := decimal.Prefix(s.data[s.pos:]); ok {
					if end := s.pos + m; end < len(s.data) && (s.data[end] == ',' || s.data[end] == '\n') {
						if s.pos = end + 1; s.data[end] == '\n' {
							s.newline(end + 1)
							last = true
						}
						if n < dim {
							b.x = append(b.x, v)
						} else {
							b.u = append(b.u, v)
						}
						continue
					}
				}
			}
			f, line, l, err := s.field()
			if err != nil {
				return fmt.Errorf("dataset: read line %d: %w", s.recLine, err)
			}
			last = l
			if n > dim || bad != nil {
				continue
			}
			v, err := parseField(string(f))
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("value is not finite (%v)", v)
			}
			switch {
			case err != nil && n < dim:
				bad = fmt.Errorf("dataset: line %d field %d: %w", line, n+1, err)
			case err != nil:
				bad = fmt.Errorf("dataset: line %d output: %w", line, err)
			case n < dim:
				b.x = append(b.x, v)
			default:
				b.u = append(b.u, v)
			}
		}
		if n != dim+1 {
			return fmt.Errorf("dataset: read line %d: %w", s.recLine, &csv.ParseError{StartLine: s.recLine, Line: s.recLine, Column: 1, Err: csv.ErrFieldCount})
		}
		if bad != nil {
			return bad
		}
		x, u := b.x[at:], b.u[len(b.u)-1]
		if at == 0 {
			b.firstEnd = b.off + int64(s.pos)
			b.bounds.InputMin = append(b.bounds.InputMin[:0], x...)
			b.bounds.InputMax = append(b.bounds.InputMax[:0], x...)
			b.bounds.OutputMin, b.bounds.OutputMax = u, u
		} else {
			b.bounds.widen(x, u)
		}
	}
	return nil
}

// scanner splits whole records into fields with encoding/csv's grammar and
// positions: lines are physical lines, columns 1-based bytes.
type scanner struct {
	data      []byte
	eof       bool // data ends where the input ends
	pos       int  // the next byte
	line      int  // the physical line of data[pos]
	lineStart int  // where that line starts in data
	recLine   int  // the line the current record starts on
	quoted    []byte
}

// record skips blank lines to the next record and reports whether there is
// one.
func (s *scanner) record() bool {
	for s.pos < len(s.data) {
		next, ok := s.lineEnd(s.pos)
		if !ok {
			s.recLine = s.line
			return true
		}
		s.pos = next
	}
	return false
}

// lineEnd reports whether the rest of the line from i is empty, as
// encoding/csv sees it ("\n", "\r\n", or "" or "\r" at the end of the
// input), and if so where the next line starts.
func (s *scanner) lineEnd(i int) (int, bool) {
	rest := s.data[i:]
	switch {
	case len(rest) > 0 && rest[0] == '\n':
		s.newline(i + 1)
		return i + 1, true
	case len(rest) > 1 && rest[0] == '\r' && rest[1] == '\n':
		s.newline(i + 2)
		return i + 2, true
	case len(rest) == 0 || s.eof && len(rest) == 1 && rest[0] == '\r':
		return len(s.data), true
	}
	return i, false
}

func (s *scanner) newline(next int) {
	s.line++
	s.lineStart = next
}

// field returns the next field of the current record, the line it starts
// on and whether it ends the record. An unquoted field aliases s.data, a
// quoted one s.quoted until the next call.
func (s *scanner) field() (f []byte, line int, last bool, err error) {
	line = s.line
	start := s.pos
	if start < len(s.data) && s.data[start] == '"' {
		return s.quotedField()
	}
	i := start
	for i < len(s.data) && s.data[i] != ',' && s.data[i] != '\n' && s.data[i] != '"' {
		i++
	}
	// The last field of a line keeps the "\r" encoding/csv drops from its
	// line end: it is a value or the output name, both read trimmed.
	switch {
	case i == len(s.data): // the input's last line, unterminated
		s.pos = i
		return s.data[start:i], line, true, nil
	case s.data[i] == ',':
		s.pos = i + 1
		return s.data[start:i], line, false, nil
	case s.data[i] == '\n':
		s.pos = i + 1
		s.newline(i + 1)
		return s.data[start:i], line, true, nil
	}
	return nil, line, false, s.errorAt(i, csv.ErrBareQuote)
}

// quotedField is field for a field that starts with a quote.
func (s *scanner) quotedField() (f []byte, line int, last bool, err error) {
	line = s.line
	s.quoted = s.quoted[:0]
	i := s.pos + 1
	for {
		q := bytes.IndexByte(s.data[i:], '"')
		if q < 0 {
			s.appendLines(i, len(s.data))
			return nil, line, false, s.unterminated()
		}
		q += i
		s.appendLines(i, q)
		i = q + 1
		switch {
		case i < len(s.data) && s.data[i] == '"':
			s.quoted = append(s.quoted, '"')
			i++
		case i < len(s.data) && s.data[i] == ',':
			s.pos = i + 1
			return s.quoted, line, false, nil
		default:
			next, ok := s.lineEnd(i)
			if !ok {
				return nil, line, false, s.errorAt(q, csv.ErrQuote)
			}
			s.pos = next
			return s.quoted, line, true, nil
		}
	}
}

// appendLines appends s.data[i:j], inside quotes, to s.quoted with each
// "\r\n" read as "\n", and counts its lines.
func (s *scanner) appendLines(i, j int) {
	for {
		k := bytes.IndexByte(s.data[i:j], '\n')
		if k < 0 {
			s.quoted = append(s.quoted, s.data[i:j]...)
			return
		}
		k += i
		seg := s.data[i:k]
		if len(seg) > 0 && seg[len(seg)-1] == '\r' {
			seg = seg[:len(seg)-1]
		}
		s.quoted = append(append(s.quoted, seg...), '\n')
		s.newline(k + 1)
		i = k + 1
	}
}

// unterminated is the error for a quoted field the input ends inside of:
// encoding/csv places it just past the last non-empty line, that line's
// "\r\n" read as "\n" and a final "\r" dropped.
func (s *scanner) unterminated() error {
	end := len(s.data)
	if s.data[end-1] == '\r' {
		end--
	}
	if end > s.lineStart {
		return s.errorAt(end, csv.ErrQuote)
	}
	// The input ends with a newline, and the error sits on the line before.
	nl := s.lineStart - 1
	start := bytes.LastIndexByte(s.data[:nl], '\n') + 1
	n := nl + 1 - start
	if nl > start && s.data[nl-1] == '\r' {
		n--
	}
	return &csv.ParseError{StartLine: s.recLine, Line: s.line - 1, Column: n + 1, Err: csv.ErrQuote}
}

// errorAt is the csv.ParseError for the byte at i on the current line.
func (s *scanner) errorAt(i int, err error) error {
	return &csv.ParseError{StartLine: s.recLine, Line: s.line, Column: i - s.lineStart + 1, Err: err}
}

// merge widens b to take in o, the bounds of rows after b's: as in widen,
// of two equal values the earlier one stays.
func (b *Bounds) merge(o *Bounds) {
	for j, v := range o.InputMin {
		if v < b.InputMin[j] {
			b.InputMin[j] = v
		}
	}
	for j, v := range o.InputMax {
		if v > b.InputMax[j] {
			b.InputMax[j] = v
		}
	}
	if o.OutputMin < b.OutputMin {
		b.OutputMin = o.OutputMin
	}
	if o.OutputMax > b.OutputMax {
		b.OutputMax = o.OutputMax
	}
}

// estimateRows guesses how many rows a CSV holds from its size, when rd can
// report one, and the byte offsets where its first data row starts and
// ends; it returns 0 when it cannot tell. The guess carries 1/16 slack, so
// rows a little longer than the first do not make X and U grow.
func estimateRows(rd io.Reader, rowStart, rowEnd int64) int {
	f, ok := rd.(interface{ Stat() (fs.FileInfo, error) })
	if !ok || rowEnd <= rowStart {
		return 0
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return 0
	}
	rows := (fi.Size() - rowStart) / (rowEnd - rowStart)
	return int(rows + rows/16 + 1)
}

// ReadCSV is ParseCSV seen as a Dataset: Xs[i] is row i of the parsed flat
// input array, capped so that appending to one row cannot reach the next.
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	rel, err := ParseCSV(name, r)
	if err != nil {
		return nil, err
	}
	dim := rel.Dim()
	ds := &Dataset{Name: name, InputNames: rel.InputNames, OutputName: rel.OutputName, Xs: make([][]float64, rel.Len()), Us: rel.U}
	for i := range ds.Xs {
		ds.Xs[i] = rel.X[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return ds, nil
}

// parseField parses one CSV field as a float64 with decimal.Parse (the bits
// and error text of strconv.ParseFloat), ignoring surrounding white space; a
// field that starts and ends with a printable ASCII byte — every field
// WriteCSV emits — has none and skips the trim.
func parseField(s string) (float64, error) {
	if n := len(s); n == 0 || s[0] <= ' ' || s[0] >= utf8.RuneSelf || s[n-1] <= ' ' || s[n-1] >= utf8.RuneSelf {
		s = strings.TrimSpace(s)
	}
	return decimal.Parse(s)
}
