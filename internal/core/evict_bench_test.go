package core

import (
	"fmt"
	"testing"
)

// BenchmarkStreamingEviction measures the bounded store's claim to fame:
// serving cost stays flat no matter how far past the capacity the training
// stream runs. For each query-space width (grid and k-d tree epochs) a
// capped model ingests a drifting stream of 1×, 10× and 100× its capacity,
// then three costs are sampled in that steady state:
//
//   - read: PredictMean latency over probes around the stream's current
//     window — must not grow with the stream length (every eviction pass
//     compacts the store over its survivors, so the slot space, and hence
//     every scan and epoch, stays bounded by the capacity);
//   - observe: one more streaming pair, spawn/evict churn amortized in
//     (each pass copies the survivors into a fresh store and builds its
//     epoch from scratch);
//   - rebuild: one forced epoch rebuild over the bounded survivor set.
//
// The d=2 workload runs both hard eviction and merge-on-evict (merge adds
// one exact O(K·d) nearest-survivor scan per victim to the pass, amortized
// over the spawns that refill the hysteresis band — the observe numbers
// carry it).
func BenchmarkStreamingEviction(b *testing.B) {
	const capacity = 512
	vig := map[int]float64{2: 0.02, 5: 0.06}
	cases := []struct {
		dim   int
		merge bool
	}{{2, false}, {2, true}, {5, false}}
	for _, tc := range cases {
		dim := tc.dim
		mode := ""
		if tc.merge {
			mode = "-merge"
		}
		for _, mult := range []int{1, 10, 100} {
			cfg := DefaultConfig(dim)
			cfg.Vigilance = vig[dim]
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			cfg.MaxPrototypes = capacity
			cfg.Eviction = Eviction{}
			cfg.MergeOnEvict = tc.merge
			m, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			stream := newDriftStream(dim, 0.2, 3e-4, int64(500+dim))
			for i := 0; i < capacity*mult; i++ {
				q, y := stream.pair()
				if _, err := m.Observe(q, y); err != nil {
					b.Fatal(err)
				}
			}
			// Probes follow the stream's current window — the hot region a
			// drifting workload actually queries.
			probeSrc := newDriftStream(dim, 0.2, 3e-4, int64(700+dim))
			probeSrc.t = stream.t
			probes := make([]Query, 512)
			for i := range probes {
				probes[i] = probeSrc.next()
				probeSrc.t = stream.t // hold the window still
			}
			suffix := fmt.Sprintf("d=%d%s/stream=%dx", dim, mode, mult)
			b.Run("read/"+suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.PredictMean(probes[i%len(probes)]); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("observe/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q, y := stream.pair()
					if _, err := m.Observe(q, y); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("rebuild/"+suffix, func(b *testing.B) {
				m.mu.Lock()
				for i := 0; i < b.N; i++ {
					m.store.rebuildEpoch()
				}
				m.mu.Unlock()
			})
		}
	}
}
