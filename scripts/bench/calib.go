package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed drifts
// by tens of percent over minutes (measured: identical work took 6.1 to
// 9.5 s across consecutive runs). A drift that slow cannot be averaged out
// inside one run, and it is wider than any bound worth gating on. So every
// child also times a fixed calibration loop between ops, and CPU-bound
// time is reported at reference host speed: scaled by how long the loop
// took here compared with refCalibration. In the runs above the loop's time
// tracked the workload's (r = 0.91) and scaling cut the run-to-run
// coefficient of variation from 8.1 % to 3.4 %.
//
// The loop shares no code with the program under test, so speeding the
// program up cannot speed the yardstick up with it.

// refCalibration is the calibration loop's time on the sizing host when it
// was quiet. It only fixes the unit: times read as milliseconds on a host
// where the loop takes this long.
const refCalibration = 1200 * time.Microsecond

// calibrationSpacing is the least time between two samples, which keeps
// calibration under six percent of a child's run.
const calibrationSpacing = 100 * time.Millisecond

const calibrationKeys = 1 << 13

type calNode struct {
	v    float64
	next *calNode
}

// calibrator owns the loop's buffers, so a sample allocates nothing and
// leaves the program's heap and GC pacing alone.
type calibrator struct {
	keys    []uint64
	nodes   []calNode
	index   map[uint64]*calNode
	last    time.Time
	samples []float64 // milliseconds, one per burst
	sink    uint64
}

func newCalibrator() *calibrator {
	return &calibrator{
		keys:  make([]uint64, calibrationKeys),
		nodes: make([]calNode, calibrationKeys),
		index: make(map[uint64]*calNode, calibrationKeys),
	}
}

// loop is the fixed work: pseudo-random keys sorted through a comparison
// closure, inserted into and deleted from a map, chained into a list and
// summed — branches, hashing, pointer chasing and float adds, like a
// discrete-event simulator's inner loop.
func (c *calibrator) loop() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = x
	}
	keys := c.keys
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	clear(c.index)
	var head *calNode
	for i, k := range keys {
		n := &c.nodes[i]
		n.v, n.next = float64(k%1000)*0.5, head
		head = n
		c.index[k] = n
		if i%3 == 0 {
			delete(c.index, keys[i/2])
		}
	}
	var sum float64
	for p := head; p != nil; p = p.next {
		sum += p.v
	}
	c.sink += uint64(sum) + uint64(len(c.index))
}

// burstLoops is how many loops one sample times. The sample is their
// median, so a neighbour's burst landing on one loop does not read as a
// slow host.
const burstLoops = 5

// sample times one burst of loops.
func (c *calibrator) sample() {
	var loops [burstLoops]float64
	for i := range loops {
		start := time.Now()
		c.loop()
		loops[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	c.last = time.Now()
	c.samples = append(c.samples, median(loops[:]))
}

// sampleIfDue takes a sample unless one was taken within the spacing.
func (c *calibrator) sampleIfDue() {
	if time.Since(c.last) >= calibrationSpacing {
		c.sample()
	}
}

// take returns the samples collected so far and starts a new series.
func (c *calibrator) take() []float64 {
	out := c.samples
	c.samples = nil
	return out
}

// hostSpeed is the host's speed relative to the reference, from a series
// of calibration samples: below 1 when the host is slower.
func hostSpeed(calMs []float64) float64 {
	m := median(calMs)
	if m <= 0 {
		return 1
	}
	return float64(refCalibration) / float64(time.Millisecond) / m
}

// atReferenceSpeed is the factor that turns a measured wall time into the
// time at reference host speed. Only the share of the wall time the
// process was on a CPU scales with host speed; the rest (timers, fsync
// waits, the service's 100 ms poll) does not.
func atReferenceSpeed(wallS, cpuS, speed float64) float64 {
	if wallS <= 0 {
		return 1
	}
	busy := min(1, cpuS/wallS)
	return (1 - busy) + busy*speed
}
