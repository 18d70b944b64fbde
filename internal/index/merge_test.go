package index

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/vector"
)

// fuzzBytes hands out a fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// heldRows gathers the rows live holds for the ids in, in ascending id.
func heldRows(live []float64, d int, in []bool) (rows []float64, ids []int32) {
	for id, held := range in {
		if held {
			rows = append(rows, live[id*d:(id+1)*d]...)
			ids = append(ids, int32(id))
		}
	}
	return rows, ids
}

// freshGrid builds the grid of heldRows from scratch, as a store does
// without a last epoch to merge.
func freshGrid(live []float64, d int, in []bool, cell float64) (*Grid, error) {
	rows, ids := heldRows(live, d, in)
	return NewGridFlatIDs(rows, d, cell, ids)
}

// atGeometry builds rows under ids from scratch at g's geometry: what a
// merge of g must equal. It reports false when a row lies in no cell of
// that geometry.
func atGeometry(g *Grid, rows []float64, ids []int32) (*Grid, bool) {
	fresh := &Grid{dim: g.dim, cellSize: g.cellSize, origin: g.origin, extent: g.extent, stride: g.stride}
	return fresh, newGridBuild(fresh, rows, 1).cluster(ids)
}

// checkMerged compares a merged grid with the from-scratch build at its
// geometry position for position, then its searches with brute force:
// NearestStale on the stored rows and on rows drifted by up to a slack, and
// Scan's member set.
func checkMerged(t *testing.T, m *Grid, live []float64, in []bool, rng *rand.Rand) {
	t.Helper()
	d := m.dim
	rows, ids := heldRows(live, d, in)
	want, ok := atGeometry(m, rows, ids)
	if !ok {
		t.Fatalf("a held row lies outside the merged grid's extent %v", m.extent)
	}
	if !slices.EqualFunc(m.pts, want.pts, sameBits) || !slices.Equal(m.ids, want.ids) {
		t.Fatalf("merged rows differ from the fresh build:\n ids %v\nwant %v\n pts %v\nwant %v", m.ids, want.ids, m.pts, want.pts)
	}
	if !slices.Equal(m.runKeys, want.runKeys) || !slices.Equal(m.runEnds, want.runEnds) {
		t.Fatalf("runs %v ending %v, want %v ending %v", m.runKeys, m.runEnds, want.runKeys, want.runEnds)
	}
	for _, key := range want.runKeys {
		if got, w := m.find(key), want.find(key); got.key != key || got.start != w.start || got.end != w.end {
			t.Fatalf("directory cell %d: %+v, want %+v", key, *got, *w)
		}
	}
	if !slices.Equal(m.boxStarts, want.boxStarts) || !slices.EqualFunc(m.boxes, want.boxes, sameBits) {
		t.Fatalf("boxes at %v %v, want at %v %v", m.boxStarts, m.boxes, want.boxStarts, want.boxes)
	}
	for id := range max(len(m.rank), len(want.rank)) {
		if got, w := m.position(int32(id)), want.position(int32(id)); got != w {
			t.Fatalf("id %d at position %d, want %d", id, got, w)
		}
	}
	for j := range d {
		top := rows[j]
		for k := j; k < len(rows); k += d {
			top = max(top, rows[k])
		}
		if m.hi[j] != top {
			t.Fatalf("Max()[%d] = %v, want %v", j, m.hi[j], top)
		}
	}

	// The searches, on queries around the rows.
	lo, hi := slices.Min(rows)-1, slices.Max(rows)+1
	q := make([]float64, d)
	const slack = 1.0 / 32
	// The live rows of a store: moved by up to the slack, the ids the grid
	// does not hold masked the way the store masks its tombstones.
	drifted := slices.Clone(live)
	for k := range drifted {
		drifted[k] += float64(rng.Intn(3)-1) / 64 // |move| ≤ √3/64 < slack
	}
	for id, held := range in {
		if !held {
			vector.MaskRow(drifted[id*d : (id+1)*d])
		}
	}
	view := vector.ChunkedFromFlat(drifted, d)
	for range 8 {
		for j := range q {
			q[j] = lo + (hi-lo)*float64(rng.Intn(64))/64
		}
		for _, stale := range []bool{false, true} {
			got, gotSq := m.NearestStale(q, 0, vector.Chunked{}, -1, 0)
			src := live
			if stale {
				got, gotSq = m.NearestStale(q, slack, view, -1, 0)
				src = drifted
			}
			want, wantSq := -1, math.Inf(1)
			for _, id := range ids {
				if sq := vector.SqDistanceFlat(src[int(id)*d:int(id+1)*d], q); want < 0 || sq < wantSq {
					want, wantSq = int(id), sq
				}
			}
			if got != want || !sameBits(gotSq, wantSq) {
				t.Fatalf("NearestStale(%v, drifted %v) = (%d, %v), brute force (%d, %v)", q, stale, got, gotSq, want, wantSq)
			}
		}
		radius := float64(rng.Intn(48)) / 16
		pos, err := m.Scan(context.Background(), nil, q, radius, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got, members []int32
		for _, p := range pos {
			got = append(got, m.ids[p])
		}
		for _, id := range ids {
			if vector.DistanceLp(live[int(id)*d:int(id+1)*d], q, 2) <= radius {
				members = append(members, id)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, members) {
			t.Fatalf("Scan(%v, %v) holds %v, brute force %v", q, radius, got, members)
		}
	}
}

// FuzzGridMerge is the property test of Grid.Merge, the prototype store's
// way to its next grid epoch. Bytes become a dimension (1-3), a cell size,
// rows on a lattice under ids 0..n−1 (some absent at the first build), then
// rounds of edits — moves inside a row's cell, moves across cells, moves out
// of the extent, tombstones and revivals — each ended by one Merge of the
// last grid. A merge must refuse exactly when a placed row leaves the extent
// (the caller then builds afresh, as the store does), must leave the grid it
// read untouched, and must otherwise equal, position for position, the
// grid built from scratch over the same rows at the same geometry, and
// answer NearestStale and Scan as brute force does.
func FuzzGridMerge(f *testing.F) {
	f.Add([]byte{1, 0, 40, 3, 200, 9, 77, 150, 33, 4, 0, 1, 0, 12, 1, 5, 40, 2, 9, 30, 3, 2, 4, 2, 0, 8, 100})
	f.Add([]byte{2, 1, 63, 0, 0, 0, 0, 16, 16, 16, 16, 16, 16, 32, 32, 7, 0, 5, 1, 3, 2, 7, 4, 3, 9, 4, 1, 1, 0, 2})
	f.Add([]byte{0, 3, 10, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 7, 3, 1, 3, 2, 3, 3, 4, 1, 4, 2, 0, 1, 7, 1, 1, 2, 0, 0})
	rng := rand.New(rand.NewSource(53))
	for range 6 {
		seed := make([]byte, 400)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := int(b.next()%3) + 1
		cell := []float64{0.25, 0.5, 0.375, 1}[b.next()%4]
		n := int(b.next()%48) + 2
		live := make([]float64, n*d)
		for k := range live {
			live[k] = float64(int8(b.next())) / 16
		}
		in := make([]bool, n)
		for id := range in {
			in[id] = b.next()%4 != 0 || id == 0
		}
		g, err := freshGrid(live, d, in, cell)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		// inCell returns a coordinate along j inside cell c of g.
		inCell := func(j int, c float64) float64 { return g.origin[j] + (c+float64(b.next())/256)*g.cellSize }
		for round := 0; len(b) > 0 && round < 24; round++ {
			var gone, moved []int32
			for range b.next() % 8 {
				op, id := b.next()%5, int(b.next())%n
				row := live[id*d : (id+1)*d]
				held := g.position(int32(id)) >= 0
				switch {
				case op == 0 && in[id]: // inside its cell
					for j, v := range row {
						row[j] = inCell(j, g.cellOf(v, j))
					}
					moved = append(moved, int32(id))
				case op == 1 && in[id]: // to another cell of the extent
					for j := range row {
						row[j] = inCell(j, float64(int(b.next())%g.extent[j]))
					}
					moved = append(moved, int32(id))
				case op == 2 && in[id]: // out of the extent
					j := int(b.next()) % d
					row[j] = inCell(j, float64(g.extent[j]+int(b.next()%3)))
					if b.next()%2 == 0 {
						row[j] = inCell(j, -1-float64(b.next()%3))
					}
					moved = append(moved, int32(id))
				case op == 3 && in[id]: // tombstone
					in[id] = false
					moved = slices.DeleteFunc(moved, func(m int32) bool { return m == int32(id) })
					if held {
						gone = append(gone, int32(id))
					}
				case op == 4 && !in[id]: // revival
					in[id] = true
					for j := range row {
						row[j] = inCell(j, float64(int(b.next())%g.extent[j]))
					}
					moved = append(moved, int32(id))
				}
			}
			if len(moved) > 0 && b.next()%2 == 0 {
				moved = append(moved, moved[0]) // a row listed twice
			}
			outside, empty := false, !slices.Contains(in, true)
			for _, id := range moved {
				for j, v := range live[int(id)*d : int(id+1)*d] {
					if c := g.cellOf(v, j); c < 0 || c >= float64(g.extent[j]) {
						outside = true
					}
				}
			}
			before := [][]float64{slices.Clone(g.pts), slices.Clone(g.hi), slices.Clone(g.boxes)}
			beforeIDs := [][]int32{slices.Clone(g.ids), slices.Clone(g.rank), slices.Clone(g.runEnds)}
			m := g.Merge(vector.ChunkedFromFlat(live, d), gone, moved)
			if !slices.EqualFunc(before, [][]float64{g.pts, g.hi, g.boxes}, func(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }) ||
				!slices.EqualFunc(beforeIDs, [][]int32{g.ids, g.rank, g.runEnds}, slices.Equal) {
				t.Fatal("Merge wrote into the grid it read")
			}
			if (m == nil) != (outside || empty) {
				t.Fatalf("round %d: Merge returned %v with a row outside the extent %v, the set empty %v", round, m, outside, empty)
			}
			if empty {
				return
			}
			if m == nil {
				if g, err = freshGrid(live, d, in, cell); err != nil {
					t.Fatal(err)
				}
				continue
			}
			checkMerged(t, m, live, in, rng)
			g = m
		}
	})
}
