package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/index"
	"llmq/internal/vector"
)

// The complexity guards: the sub-O(K) searches and the O(touched chunks)
// publication are what keep a served statement and a training batch from
// growing with the prototype count, and a regression in either keeps every
// answer bit-identical — only slower. These tests count the operations
// white-box instead of timing them, so they hold on any machine, at any
// GOMAXPROCS, under -race and -short.

// densityGen is wideGen's clusters at a constant cluster density: query
// centres drawn N(c, σ²I), σ = 0.04, around `clusters` centres c uniform in
// [0, L]^dim with L^dim = clusters — one cluster per unit of volume however
// many there are — and θ uniform in [0.05, 0.15].
func densityGen(dim, clusters int, seed int64) queryGen {
	const sigma = 0.04
	side := math.Pow(float64(clusters), 1/float64(dim))
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = side * rng.Float64()
		}
		centers[i] = c
	}
	return func(rng *rand.Rand) Query {
		c := centers[rng.Intn(clusters)]
		x := make([]float64, dim)
		for j := range x {
			x[j] = c[j] + sigma*rng.NormFloat64()
		}
		return Query{Center: x, Theta: 0.05 + 0.1*rng.Float64()}
	}
}

// overlapRows runs overlapRaw on q and returns the prototype rows it
// examined: the grid's candidates or the rows of the tree's leaf runs, plus
// the appended tail, which every indexed search scans exactly. A search that ends in overlapLinearRaw examined all k rows. That
// is recognised by the sentinels planted in the scratch — overlapLinearRaw
// touches neither the candidate list nor the leaf runs — or, for the grid's
// own bail-out after its range query, by the rule that takes it.
func overlapRows(s *storeSnapshot, q Query, sc *predictScratch) int {
	sc.cand = append(sc.cand[:0], -1)
	sc.runs = append(sc.runs[:0], index.Span{Start: -1, End: -1})
	s.overlapRaw(q, sc)
	e := s.epoch
	if e == nil {
		return s.k
	}
	rows := s.k - e.builtK
	if e.grid != nil {
		if len(sc.cand) == 1 && sc.cand[0] == -1 {
			return s.k
		}
		if rows += len(sc.cand); rows >= s.k/2 {
			return s.k
		}
		return rows
	}
	if len(sc.runs) == 1 && sc.runs[0].Start == -1 {
		return s.k
	}
	for _, run := range sc.runs {
		rows += int(run.End - run.Start)
	}
	return rows
}

// TestOverlapSearchIsIndexed guards the read path's overlap search (Eq. 10)
// against de-indexing: on a d = 2 grid epoch and a d = 8 tree epoch, each at
// K = 2 000 and K = 20 000 with the prototypes per cluster held at 100, a
// query from the same clusters must examine at most K/8 rows on average,
// and growing K tenfold must leave the rows examined well short of the
// tenfold a linear scan reads. The ratio bound, 5.4, sits halfway between 10 and the ratios
// measured when the guard was written (0.88 at d = 2, 0.98 at d = 8).
func TestOverlapSearchIsIndexed(t *testing.T) {
	const perCluster, queries, maxRatio = 100, 512, 5.4
	for _, dim := range []int{2, 8} {
		var mean [2]float64
		for i, K := range []int{2_000, 20_000} {
			gen := densityGen(dim, K/perCluster, 41)
			s := insertWideModel(t, dim, K, gen).View().s
			if s.epoch == nil || (s.epoch.grid != nil) != (dim == 2) {
				t.Fatalf("d=%d K=%d: want a grid epoch at d = 2 and a tree epoch at d = 8", dim, K)
			}
			rng := rand.New(rand.NewSource(7))
			var sc predictScratch
			rows := 0
			for n := 0; n < queries; n++ {
				rows += overlapRows(s, gen(rng), &sc)
			}
			mean[i] = float64(rows) / queries
			if mean[i] > float64(K)/8 {
				t.Errorf("d=%d K=%d: an overlap search examines %.1f rows on average, want at most K/8 = %d",
					dim, K, mean[i], K/8)
			}
		}
		ratio := mean[1] / mean[0]
		t.Logf("d=%d: %.1f rows per query at K=2000, %.1f at K=20000: ratio %.2f (bound %.1f, a linear scan 10)",
			dim, mean[0], mean[1], ratio, maxRatio)
		if ratio > maxRatio {
			t.Errorf("d=%d: tenfold K multiplied the rows an overlap search examines by %.2f, want at most %.1f",
				dim, ratio, maxRatio)
		}
	}
}

// TestWriterSearchStaysIndexed guards the write path's winner search: on a
// drifting TrainBatch stream at d = 2 (grid) and d = 8 (tree), unbounded and
// capped with eviction, the writer's store has an epoch after every batch
// that leaves it above the size gates, the rows a winner search scans
// exactly — the appended tail — stay under the K/8
// rebuild rule of maybeRebuildEpoch, and the drift slack every indexed
// search widens by stays under its rebuild threshold and bounds every
// indexed row's distance from the epoch's copy.
func TestWriterSearchStaysIndexed(t *testing.T) {
	for _, tc := range []struct {
		dim int
		vig float64
		max int
	}{{2, 0.03, 0}, {2, 0.03, 200}, {8, 0.15, 0}, {8, 0.15, 200}} {
		t.Run(fmt.Sprintf("d=%d/max=%d", tc.dim, tc.max), func(t *testing.T) {
			cfg := DefaultConfig(tc.dim)
			cfg.Vigilance = tc.vig
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			cfg.MaxPrototypes = tc.max
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream := newDriftStream(tc.dim, 0.2, 3e-4, int64(90+tc.dim))
			pairs := make([]TrainingPair, 64)
			indexed, evicted := 0, 0
			for b := 0; b < 80; b++ {
				for i := range pairs {
					q, y := stream.pair()
					pairs[i] = TrainingPair{Query: q, Answer: y}
				}
				k := m.K()
				res, err := m.TrainBatch(pairs)
				if err != nil {
					t.Fatal(err)
				}
				if res.K < k {
					evicted++
				}
				checkSlackInvariant(t, m.View().s, fmt.Sprintf("batch %d", b))
				s := m.store
				if s.k < s.minEpochK() {
					continue
				}
				indexed++
				if s.epoch == nil {
					t.Fatalf("batch %d: K=%d is above the size gate and the writer has no epoch", b, s.k)
				}
				if exact := s.k - s.epoch.builtK; exact*8 >= s.k {
					t.Fatalf("batch %d: a winner search scans %d of %d rows exactly (the tail), want under K/8", b, exact, s.k)
				}
				if s.maxDrift > s.vigilance/4 {
					t.Fatalf("batch %d: drift slack %g past the rebuild threshold %g", b, s.maxDrift, s.vigilance/4)
				}
			}
			if indexed < 40 || (tc.max > 0 && evicted == 0) {
				t.Fatalf("%d of 80 batches above the size gate, %d evicting: the stream exercised too little", indexed, evicted)
			}
		})
	}
}

// TestPublishCopiesOnlyTouchedChunks guards the copy-on-write publication:
// a 64-pair batch of winner updates — each pair exactly on a prototype, so
// nothing drifts and no rebuild intervenes — must publish a version whose
// chunk table differs from the previous one in exactly the chunks the batch
// wrote, at K = 1 000 (every chunk touched) and at K = 100 000 (64 of 391),
// and it must copy each of those chunks once, however many of its rows the
// batch writes.
func TestPublishCopiesOnlyTouchedChunks(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		K   int
		vig float64
	}{{1_000, 0.03}, {100_000, 0.003}} {
		m := buildPublishBenchModel(t, 2, tc.K, tc.vig, 0.05, 0.15)
		before := m.View().s
		rng := rand.New(rand.NewSource(5))
		pairs := make([]TrainingPair, n)
		slots := make([]int, n)
		touched := map[int]bool{}
		for i := range pairs {
			slots[i] = i * tc.K / n
			pairs[i] = TrainingPair{Query: before.proto(slots[i]).query(), Answer: rng.NormFloat64()}
			touched[slots[i]>>chunkShift] = true
		}
		if res, err := m.TrainBatch(pairs); err != nil || res.Accepted != n || res.K != tc.K {
			t.Fatalf("K=%d: TrainBatch = %+v, %v; want %d update-only pairs", tc.K, res, err, n)
		}
		after := m.View().s
		if len(after.dataC) != len(before.dataC) {
			t.Fatalf("K=%d: the chunk table went from %d to %d chunks on an update-only batch", tc.K, len(before.dataC), len(after.dataC))
		}
		var differ []int
		for c := range after.dataC {
			if after.dataC[c] != before.dataC[c] {
				differ = append(differ, c)
			}
		}
		if len(differ) != len(touched) || slices.ContainsFunc(differ, func(c int) bool { return !touched[c] }) {
			t.Fatalf("K=%d: the publication replaced %d of %d chunk pointers, want exactly the %d chunks the batch wrote",
				tc.K, len(differ), len(after.dataC), len(touched))
		}

		// The same batch again, one step at a time under the writer lock:
		// every chunk pointer that changes is one copy.
		m.mu.Lock()
		seen := slices.Clone(m.store.dataC)
		copies := 0
		for i, p := range pairs {
			if info := m.observeLocked(p.Query, p.Answer); info.Created || info.Winner != slots[i] {
				m.mu.Unlock()
				t.Fatalf("K=%d: pair %d won slot %d (spawned %v), want an update of slot %d", tc.K, i, info.Winner, info.Created, slots[i])
			}
			for c, chunk := range m.store.dataC {
				if chunk != seen[c] {
					copies++
					seen[c] = chunk
				}
			}
		}
		m.publishLocked()
		m.mu.Unlock()
		if copies != len(touched) {
			t.Fatalf("K=%d: a batch writing %d chunks copied chunks %d times, want once each", tc.K, len(touched), copies)
		}
	}
}

// TestServedWinnerSearchVisits reports, on train_durable's stream at its
// served size (BenchmarkDurableTrainBatch's model warmed to K ≈ 1 900), the
// mean number of stored points the grid epoch's winner search measures per
// training pair, and bounds it. Each pair is searched on the writer's state
// just before it trains, seeded as winnerOn seeds it (the appended tail,
// scanned exactly), and must find the writer's winner.
// TestGridNearestVisitsOnlyItsCutoff's fixture (uniform points, every row
// moved by up to the slack) measures 15.2 since its rings were clipped;
// this guard records the count on the stream itself, 27.7 when it was
// written (PERFORMANCE.md, "The writer's epoch merge"), and bounds it at
// 1.3 times that.
func TestServedWinnerSearchVisits(t *testing.T) {
	const batches, maxMean = 100, 36.0
	m, stream := warmModel(t)
	searches, measured := 0, 0
	for range batches {
		for _, p := range stream.next() {
			s := m.store
			e := s.epoch
			if e == nil || e.grid == nil {
				t.Fatalf("K=%d: the writer has no grid epoch", s.k)
			}
			q := append(slices.Clone(p.Query.Center), p.Query.Theta)
			live := s.liveView()
			seed, seedSq := vector.ArgminSqDistanceChunkedRange(live, q, e.builtK, -1, math.Inf(1))
			got, gotSq, n := e.grid.NearestStaleMeasured(q, s.maxDrift, live, seed, seedSq)
			if want, wantSq := s.winner(q); got != want || gotSq != wantSq {
				t.Fatalf("pair %d: measured search (%d, %v), the writer's (%d, %v)", searches, got, gotSq, want, wantSq)
			}
			searches, measured = searches+1, measured+n
			if _, err := m.TrainBatch([]TrainingPair{p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mean := float64(measured) / float64(searches)
	t.Logf("K=%d: %.1f stored points measured per winner search over %d pairs (bound %.0f)", m.K(), mean, searches, maxMean)
	if mean > maxMean {
		t.Errorf("a served winner search measures %.1f stored points on average, want at most %.0f", mean, maxMean)
	}
}
