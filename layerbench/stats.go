package main

import (
	"slices"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none). xs is sorted in
// place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted samples by the
// nearest-rank rule.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// cpuNow returns the process's user plus system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// window is one slice of a timed phase: ops completed, wall time and
// process CPU time spent.
type window struct {
	ops  int64
	wall time.Duration
	cpu  time.Duration
}

// phase is the record of one timed closed loop.
type phase struct {
	ops     int64
	failed  int64
	wall    time.Duration
	lat     []int64 // per-op latency in ns, sorted after the run
	windows []window
}

// runClosedLoop calls op back to back for d, timing each call, and
// cuts the run into one-second windows. It stops early at the first
// error, which it returns with the failed op counted.
func runClosedLoop(d time.Duration, expectOps int, op func() error) (*phase, error) {
	const slice = time.Second
	p := &phase{lat: make([]int64, 0, expectOps)}
	start := time.Now()
	end := start.Add(d)
	wStart, wCPU, wOps := start, cpuNow(), int64(0)
	var err error
	for {
		t0 := time.Now()
		if t0.After(end) {
			break
		}
		if t0.Sub(wStart) >= slice {
			c := cpuNow()
			p.windows = append(p.windows, window{ops: p.ops - wOps, wall: t0.Sub(wStart), cpu: c - wCPU})
			wStart, wCPU, wOps = t0, c, p.ops
		}
		if err = op(); err != nil {
			p.failed++
			break
		}
		p.lat = append(p.lat, int64(time.Since(t0)))
		p.ops++
	}
	p.wall = time.Since(start)
	if tail := time.Since(wStart); len(p.windows) == 0 || tail >= slice/2 {
		p.windows = append(p.windows, window{ops: p.ops - wOps, wall: tail, cpu: cpuNow() - wCPU})
	}
	slices.Sort(p.lat)
	return p, err
}

// rate is the median over windows of ops per second.
func (p *phase) rate() float64 {
	xs := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		xs = append(xs, float64(w.ops)/w.wall.Seconds())
	}
	return median(xs)
}

// cpuPerOp is the median over windows of CPU nanoseconds per op.
func (p *phase) cpuPerOp() float64 {
	xs := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		if w.ops > 0 {
			xs = append(xs, float64(w.cpu.Nanoseconds())/float64(w.ops))
		}
	}
	return median(xs)
}
