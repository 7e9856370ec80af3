package main

import (
	"time"
)

// passFunc runs one measured pass and returns the ops it completed. It
// appends one host latency per timed op to lat (in milliseconds) when lat
// is not nil, and calls mark at the end of each of the pass's fixed
// segments, so that the run's throughput can be taken from per-segment
// medians. traced asks it to take the per-layer timings as well, which
// costs extra clock reads.
type passFunc func(lat *[]float64, traced bool, mark func()) int64

// timeSetups runs setup setupReps times and returns the median duration
// in seconds. The last set-up's state is the one the run measures.
func timeSetups(setup func()) float64 {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		setup()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// loop runs passes until d has elapsed (at least one pass). It returns the
// run's throughput in ops per host second and the number of passes. The
// throughput is the ops of one pass over a robust pass time: the sum, over
// the pass's segments, of each segment's median duration across the run.
// Every segment of the pass is counted, but a host stall inflates only the
// segments it hits, and the medians leave those out.
func loop(d time.Duration, pass passFunc, lat *[]float64, traced bool) (rate float64, passes int, ops int64) {
	var segs [][]float64 // segs[i]: durations of segment i, one per pass
	deadline := time.Now().Add(d)
	for passes == 0 || time.Now().Before(deadline) {
		i, last := 0, time.Now()
		mark := func() {
			now := time.Now()
			if i == len(segs) {
				segs = append(segs, nil)
			}
			segs[i] = append(segs[i], now.Sub(last).Seconds())
			i, last = i+1, now
		}
		ops += pass(lat, traced, mark)
		passes++
	}
	var t float64
	for _, s := range segs {
		t += median(s)
	}
	return float64(ops) / float64(passes) / t, passes, ops
}

// measure runs the measured phase of a pass-structured workload. Without
// tracing it reports ops_per_s and the op latency percentiles. With tracing
// it measures half the time untraced and half traced, so the tracing
// overhead is read in one process, and it reports the runtime and
// CPU-profile split of the traced half.
func measure(cfg config, r *report, pass passFunc) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		var lat []float64
		rate, passes, _ := loop(d, pass, &lat, false)
		r.set("ops_per_s", rate)
		setLatency(r, lat)
		r.note("measured %d passes, %d timed latency samples", passes, len(lat))
		return
	}
	untraced, _, _ := loop(d/2, pass, nil, false)
	tr := startTrace()
	traced, _, ops := loop(d/2, pass, nil, true)
	tr.stop(r, ops)
	setOverhead(r, untraced, traced)
}

// setLatency reports the latency median and 90th percentile, the latter
// only when at least minTail samples lie beyond it. The 99th percentile is
// not reported: host stalls of a few milliseconds set it (see README.md).
func setLatency(r *report, lat []float64) {
	r.set("lat_ms.p50", median(lat))
	p90, ok := percentile(lat, 90)
	if !ok {
		r.note("lat_ms.p90 withheld: %d samples leave fewer than %d beyond the 90th percentile", len(lat), minTail)
		return
	}
	r.set("lat_ms.p90", p90)
}

// setOverhead reports the traced throughput and its cost against the
// untraced throughput of the same run.
func setOverhead(r *report, untraced, traced float64) {
	r.set("trace.ops_per_s", traced)
	r.set("trace.overhead_frac", 1-traced/untraced)
	r.note("tracing overhead: %.0f ops/s traced against %.0f untraced", traced, untraced)
}
