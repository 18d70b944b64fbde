package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/vector"
)

// canonicalWinner is the brute-force winner of Eq. 5 over a version's
// slots: the first slot strictly nearer than every earlier one under the
// vector kernels' one squared distance (SqDistanceWithin without a cutoff),
// and slot 0 when none is at a finite distance.
func canonicalWinner(s *storeSnapshot, qflat []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for k := 0; k < s.k; k++ {
		if sq, _ := vector.SqDistanceWithin(s.row(k), qflat, math.Inf(1)); sq < bestSq || best < 0 {
			best, bestSq = k, sq
		}
	}
	return best, bestSq
}

// TestWinnerDistanceIsCanonical holds the winner search to a function of
// the rows: on every View of every approx_golden history, View.Winner's
// distance — and, on a Case-3 query (no overlap), ScatterScan's WinnerDist,
// which the shard router compares across shards — is √ of canonicalWinner's
// squared distance, bit for bit, whichever path found the winner; a
// different slot is allowed only at exactly that distance.
//
// The golden queries reach the winner without an epoch (the bounded
// history's merged views), through the grid, and through
// the k-d tree's verified traversal and its bail scan (many far queries at
// d = 5 and 8 bail). Per View, queries are added beyond each appended-tail
// prototype, pointing away from the prototypes' mean, so the tail scan finds
// some winners; and one query whose squared distance to every prototype
// overflows, on which every tree traversal bails (every box is at +Inf) and
// which slot 0 wins at +Inf.
func TestWinnerDistanceIsCanonical(t *testing.T) {
	paths := map[string]int{}
	check := func(v View, q Query, what string) {
		t.Helper()
		s, qflat := v.s, append(slices.Clone(q.Center), q.Theta)
		want, wantSq := canonicalWinner(s, qflat)
		wantDist := math.Sqrt(wantSq)
		got, dist, err := v.Winner(q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got < 0 || got >= s.k || math.Float64bits(dist) != math.Float64bits(wantDist) {
			t.Fatalf("%s: Winner = (%d, %v), brute force (%d, %v)", what, got, dist, want, wantDist)
		}
		if gotSq, _ := vector.SqDistanceWithin(s.row(got), qflat, math.Inf(1)); math.Float64bits(gotSq) != math.Float64bits(wantSq) {
			t.Fatalf("%s: Winner = slot %d at squared distance %v, brute force slot %d at %v", what, got, gotSq, want, wantSq)
		}
		res, err := v.ScatterScan(q, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res.Contribs) > 0 {
			return
		}
		if math.Float64bits(res.WinnerDist) != math.Float64bits(wantDist) {
			t.Fatalf("%s: ScatterScan WinnerDist = %v, brute force %v", what, res.WinnerDist, wantDist)
		}
		e := s.epoch
		switch {
		case e == nil:
			paths["no epoch"]++
		case got >= e.builtK:
			paths["tail"]++
		case e.grid != nil:
			paths["grid"]++
		case math.IsInf(wantSq, 1):
			paths["tree bail"]++
		default:
			paths["tree"]++
		}
	}
	var last *storeSnapshot
	approxGoldenShapes(t, func(v View, gq goldenQuery, _ approxCase) {
		check(v, gq.q, gq.kind)
		if v.s == last {
			return
		}
		last = v.s
		s := v.s
		far := Query{Center: make([]float64, s.dim), Theta: 0.1}
		far.Center[0] = 1e300
		check(v, far, "overflow")
		if s.epoch == nil {
			return
		}
		mean := make([]float64, s.dim)
		for k := 0; k < s.k; k++ {
			for j := range mean {
				mean[j] += s.row(k)[j] / float64(s.k)
			}
		}
		for k := s.epoch.builtK; k < s.k; k++ {
			p := s.proto(k).query()
			for j := range p.Center {
				p.Center[j] += 2 * (p.Center[j] - mean[j])
			}
			check(v, p, "beyond the tail")
		}
	})
	t.Logf("Case-3 winners by path: %v", paths)
	for _, path := range []string{"no epoch", "tail", "grid", "tree", "tree bail"} {
		if paths[path] == 0 {
			t.Errorf("no Case-3 query reached its winner by the %s path", path)
		}
	}
}

// TestJitterKeepsEpoch pins what the drift slack measures: a prototype's
// displacement from the epoch's copy, not the length of the path it took
// there. At d = 2 (grid epoch) and d = 8 (tree epoch), pairs alternate on
// either side of one indexed prototype, so its path passes the ρ/4 rebuild
// threshold several times over while it never strays ρ/8 from the copy. The
// epoch must survive every step, and every winner — the step's own and
// those of probes around the prototype — must be the linear scan's.
func TestJitterKeepsEpoch(t *testing.T) {
	for _, tc := range []struct {
		dim int
		vig float64
	}{{2, 0.03}, {8, 0.15}} {
		t.Run(fmt.Sprintf("d=%d", tc.dim), func(t *testing.T) {
			const K, steps = 300, 24
			dim, rho := tc.dim, tc.vig
			cfg := DefaultConfig(dim)
			cfg.Vigilance = rho
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Prototypes at least ρ apart in the query space, as training
			// leaves them, all indexed by one fresh epoch.
			rng := rand.New(rand.NewSource(int64(dim)))
			var rows [][]float64
			for len(rows) < K {
				p := make([]float64, dim+1)
				for j := range dim {
					p[j] = rng.Float64()
				}
				p[dim] = 0.05 + 0.1*rng.Float64()
				if !slices.ContainsFunc(rows, func(r []float64) bool { return vector.SqDistanceFlat(r, p) < rho*rho }) {
					rows = append(rows, p)
				}
			}
			for _, p := range rows {
				insertProto(m, Query{Center: slices.Clone(p[:dim]), Theta: p[dim]}, make([]float64, dim+2), 1)
			}
			m.store.rebuildEpoch()
			m.publishLocked()
			e := m.store.epoch
			if e == nil || (e.grid != nil) != (dim == 2) {
				t.Fatalf("want a grid epoch at d = 2 and a tree epoch at d = 8")
			}

			const k = K / 2
			home := slices.Clone(m.store.row(k))
			at := func(offset float64) Query {
				q := Query{Center: slices.Clone(home[:dim]), Theta: home[dim]}
				q.Center[0] += offset
				return q
			}
			path := 0.0
			for i := range steps {
				stage := fmt.Sprintf("step %d", i)
				q := at(rho / 5)
				if i%2 == 1 {
					q = at(-rho / 5)
				}
				// η = 1/2 every step: the per-prototype rate 1/(wins+1)
				// reads the win count, held at one.
				m.store.writableChunk(k)
				m.store.setWin(k, 1)
				want, _ := winnerLinearScan(writerSlots(m), q)
				before := slices.Clone(m.store.row(k))
				info, err := m.Observe(q, 1)
				if err != nil {
					t.Fatal(err)
				}
				if info.Created || info.Winner != want || want != k {
					t.Fatalf("%s: winner %d (spawned %v), linear scan %d, want an update of slot %d", stage, info.Winner, info.Created, want, k)
				}
				path += math.Sqrt(vector.SqDistanceFlat(before, m.store.row(k)))
				displacement := math.Sqrt(vector.SqDistanceFlat(home, m.store.row(k)))
				if displacement >= rho/8 {
					t.Fatalf("%s: the prototype strayed %v from its copy, want under ρ/8 = %v", stage, displacement, rho/8)
				}
				if m.store.epoch != e {
					t.Fatalf("%s: the epoch was rebuilt at path length %v, displacement %v (ρ/4 = %v)", stage, path, displacement, rho/4)
				}
				s := m.View().s
				checkSlackInvariant(t, s, stage)
				slots := writerSlots(m)
				for _, offset := range []float64{-rho, -rho / 2, 0, rho / 3, rho} {
					p := at(offset)
					want, wantDist := winnerLinearScan(slots, p)
					got, dist, err := View{s}.Winner(p)
					if err != nil {
						t.Fatal(err)
					}
					if !sameLinearWinner(slots, p, got, dist, want, wantDist) {
						t.Fatalf("%s: probe at %+v: winner (%d, %v), linear scan (%d, %v)", stage, offset, got, dist, want, wantDist)
					}
				}
			}
			if path <= rho/4 {
				t.Fatalf("the prototype's path was %v, want past ρ/4 = %v", path, rho/4)
			}
		})
	}
}
