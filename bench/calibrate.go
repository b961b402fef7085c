package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark shares slows down by up to 2x for minutes at a
// time, which no number of reps within one run can average away. So every
// time the benchmark reports is rescaled to a reference host speed: a
// fixed calibration workload runs between reps, and a rep's wall time is
// multiplied by calibrationRef over the calibration time around it. The
// calibration is the benchmark's own code, so a change to the simulator
// cannot move it; only the host's speed does.

// calibrationRef is the calibration's wall time on the reference host (the
// 2-CPU host the recorded sets in README.md come from, when it was quiet).
// A rescaled time reads as seconds on that host.
const calibrationRef = 60 * time.Millisecond

// calibrate runs the calibration workload and returns its wall time. It
// has the shapes of the simulator's hot paths: map inserts and lookups,
// small pointer-linked allocations, a traversal and a sort. It starts from
// a collected heap, so the garbage a rep leaves cannot change how often
// the calibration's own allocations trigger the GC.
func calibrate() time.Duration {
	type item struct {
		next *item
		key  uint64
		pad  [3]uint64
	}
	runtime.GC()
	start := time.Now()
	m := make(map[uint64]*item)
	var head *item
	x := uint64(7)
	for i := 0; i < 150_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		head = &item{next: head, key: x}
		m[x>>20] = head
	}
	hits := 0
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if _, ok := m[x>>20]; ok {
			hits++
		}
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sum uint64
	for it := head; it != nil; it = it.next {
		sum += it.key
	}
	calibrationSink += sum + uint64(hits) + keys[0]
	return time.Since(start)
}

// calibrationSink keeps the calibration's result live.
var calibrationSink uint64

// hostClock measures the host's speed between the timed parts of a run.
type hostClock struct {
	cals []float64 // every calibration point, in seconds
}

func newHostClock() *hostClock {
	h := &hostClock{}
	h.mark()
	return h
}

// mark adds a calibration point: the fastest of three calibrations, so a
// brief stall in one of them does not count as a slow host.
func (h *hostClock) mark() {
	c := min(calibrate(), calibrate(), calibrate())
	h.cals = append(h.cals, c.Seconds())
}

// scale adds a calibration point and returns the factor that rescales a
// wall time measured since the previous one to the reference host:
// calibrationRef over the mean of the two points.
func (h *hostClock) scale() float64 {
	prev := h.cals[len(h.cals)-1]
	h.mark()
	return calibrationRef.Seconds() / ((prev + h.cals[len(h.cals)-1]) / 2)
}
