package main

import "time"

// hostWalk is 8 MB, larger than this VM's per-core L2, so a walk over it
// is served by the shared last-level cache and memory.
var hostWalk = make([]uint64, 1<<20)

// memWalkUS times one strided read-modify-write walk over hostWalk (400 000
// dependent accesses, ~2 ms) n times and returns the median in µs.
//
// It measures the machine, not the program: on the shared VM this was
// written on, throughput of every workload drifts by up to 40 % over
// minutes with no change to anything, and this walk is the one probe that
// moves with it (1.6 ms when the workloads run fast, 2.8 ms when they run
// slow; an integer loop and a floating-point loop stay put). It is reported
// as host.mem_walk_us so that two runs — parent and change — can be seen to
// have met the same machine before their difference is believed.
func memWalkUS(n int) float64 {
	out := make([]float64, n)
	for k := range out {
		t := time.Now()
		var s uint64
		idx := 0
		for i := 0; i < 400_000; i++ {
			s += hostWalk[idx]
			hostWalk[idx] = s
			idx = (idx + 4099*8) & (len(hostWalk) - 1)
		}
		out[k] = us(time.Since(t))
	}
	return median(out)
}
