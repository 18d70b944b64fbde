package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"
)

// obs is one completed request as the client saw it.
type obs struct {
	done  time.Duration // completion, relative to the measured window's start (negative in warm-up)
	lat   time.Duration // send → last byte
	first time.Duration // send → first result frame (streamed sheets only)
	ops   int32         // statements (or pairs) the request carried
	class uint8
	ok    bool
	rep   bool // a pooled (repeated) statement
}

// doFunc performs request i of one connection and describes the outcome;
// it returns an error only when the connection itself is unusable.
type doFunc func(c *conn, i uint64) (obs, error)

// windowResult is what one measured window produced.
type windowResult struct {
	obs       []obs // completed inside the window, all connections
	attempted int   // requests sent inside the window
	failed    int
	wall      time.Duration
	childCPU  float64 // seconds of child CPU over the window
	selfCPU   float64 // seconds of the benchmark's own CPU over the window
	rssMB     float64
}

// selfCPUSeconds is the benchmark process's own consumed CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow drives the child with one closed loop per entry of loops —
// each connection sends its next request only when the previous answer has
// fully arrived — for warmup + window, and keeps what completed inside the
// window. The child's CPU and the benchmark's own are read at the window's edges.
func (e *env) runWindow(c *child, loops []doFunc, warmup, window time.Duration) (*windowResult, error) {
	conns := make([]*conn, len(loops))
	for i := range conns {
		cn, err := dial(c.addr)
		if err != nil {
			return nil, err
		}
		defer cn.close()
		conns[i] = cn
	}
	start := time.Now().Add(warmup) // the window's origin
	stop := make(chan struct{})
	per := make([][]obs, len(loops))
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for k := range loops {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out := make([]obs, 0, 1<<16)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					per[k] = out
					return
				default:
				}
				o, err := loops[k](conns[k], i)
				if err != nil {
					errs[k] = err
					per[k] = out
					return
				}
				o.done = time.Since(start)
				out = append(out, o)
			}
		}(k)
	}
	wait := func(d time.Duration) error {
		select {
		case <-time.After(d):
			return nil
		case <-e.ctx.Done():
			return e.ctx.Err()
		}
	}
	res := &windowResult{}
	err := wait(time.Until(start))
	var cpu0, self0 float64
	if err == nil {
		if cpu0, err = c.cpuSeconds(); err == nil {
			self0 = selfCPUSeconds()
			err = wait(window)
		}
	}
	if err == nil {
		res.wall = time.Since(start)
		var cpu1 float64
		if cpu1, err = c.cpuSeconds(); err == nil {
			res.childCPU = cpu1 - cpu0
			res.selfCPU = selfCPUSeconds() - self0
			res.rssMB, err = c.rssPeakMB()
		}
	}
	close(stop)
	if err != nil {
		// Unblock loops stuck in a read so the wait below returns.
		for _, cn := range conns {
			cn.close()
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for k, lerr := range errs {
		if lerr != nil {
			return nil, fmt.Errorf("connection %d: %w", k, lerr)
		}
	}
	for _, out := range per {
		for _, o := range out {
			if o.done < 0 || o.done >= res.wall {
				continue
			}
			res.attempted++
			if !o.ok {
				res.failed++
			}
			res.obs = append(res.obs, o)
		}
	}
	return res, nil
}

// perSecondOps buckets the OK operations of a window by completion second.
func (w *windowResult) perSecondOps() []int {
	n := int(w.wall / time.Second)
	if n < 1 {
		n = 1
	}
	out := make([]int, n)
	for _, o := range w.obs {
		if s := int(o.done / time.Second); o.ok && s < n {
			out[s] += int(o.ops)
		}
	}
	return out
}

// okOps is the number of operations answered OK inside the window.
func (w *windowResult) okOps() int {
	n := 0
	for _, o := range w.obs {
		if o.ok {
			n += int(o.ops)
		}
	}
	return n
}

// latenciesMS returns the sorted send→last-byte latencies, in ms, of the OK
// requests that pass keep.
func (w *windowResult) latenciesMS(keep func(obs) bool) []float64 {
	var out []float64
	for _, o := range w.obs {
		if o.ok && (keep == nil || keep(o)) {
			out = append(out, float64(o.lat.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
