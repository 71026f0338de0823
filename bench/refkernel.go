package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// The reference kernel is the benchmark's yardstick: a fixed, allocation-free
// piece of standard-library-only work whose wall time tracks the speed the box
// runs engine-like code at right now.  It runs directly before and after every
// timed segment, and every reported time is the segment's wall time rescaled
// to a box on which the kernel takes exactly refNominalMS.
//
// The kernel is a miniature of the engine, not a pure arithmetic loop: it
// fills window-sized float64 columns of a ring, reduces them against earlier
// ones, sorts keys and updates a hash map.  It runs twice, over a ring that
// fits a core's private cache and over one that does not, and gives one
// reading for each.  On the shared box this benchmark was sized on, what the
// neighbours take away is cache and memory bandwidth: the speed of code that
// streams through megabytes (Advance, the cold build) moves by up to 70 % over
// seconds, code that stays inside the index and a few columns (the query
// pass) moves by less than half of that, and an L2-resident dot product
// barely moves at all.  So a segment is scaled by a mix of the two readings
// that matches its own footprint (bench/README.md has the numbers).
//
// Changing anything here (sizes, the generator, the loops) changes the unit
// every earlier number was reported in, which is why the checksum is pinned.
const (
	refColumn    = 360  // floats per column, the window length of the sensor workloads
	refColumns   = 1200 // columns filled and reduced per ring
	refRingCache = 128  // columns of the ring that fits the cache, 360 KiB
	refRingMem   = 2048 // columns of the ring that does not, 5.6 MiB
	refLag       = 37   // a column is reduced against the one filled refLag steps earlier
	refKeys      = 4096 // keys sorted per ring
	refMapOps    = 4000
	refNominalMS = 1.0 // per ring
	// refChecksum is math.Float64bits of the sum of both rings' results.
	refChecksum uint64 = 0x4128139d3914f226
)

// reading is one yardstick measurement: the kernel's wall time over the ring
// that fits the cache and over the one that does not, in milliseconds.
type reading struct{ inCache, pastCache float64 }

// footprint is the weight of the past-cache reading in the yardstick a timed
// segment is scaled by; the in-cache reading has the rest.  The two values
// were fitted once, on a ten-seed sweep that straddled an episode in which the
// box ran 50 % slow: per workload, the weight that left the least spread was
// 0.6 to 0.9 for Advance, 0.5 to 0.7 for set-up and 0.3 to 0.7 for the query
// pass, and the spread is flat around those (0.2 off costs about a point).
// Like the kernel itself they define the unit, so they are pinned.
type footprint float64

const (
	streaming footprint = 0.7  // Advance, set-up, probes of code that builds or slides state
	scanning  footprint = 0.45 // the query pass, probes of code that reads state
)

// speed is the reading's yardstick for a segment of the given footprint: the
// weighted geometric mean of the two ring times.
func (r reading) speed(f footprint) float64 {
	return math.Pow(r.inCache, 1-float64(f)) * math.Pow(r.pastCache, float64(f))
}

// refKernel is one worker's kernel state.
type refKernel struct {
	a, b    []float64
	keys    []float64
	scratch []float64
	ring    [][]float64
	counts  map[int]float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a:       make([]float64, refColumn),
		b:       make([]float64, refColumn),
		keys:    make([]float64, refKeys),
		scratch: make([]float64, refKeys),
		ring:    make([][]float64, refRingMem),
		counts:  make(map[int]float64, 2048),
	}
	// A hand-rolled LCG keeps the inputs independent of math/rand's
	// generator, which the standard library is free to change.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11)/float64(1<<53) - 0.5
	}
	for i := range k.a {
		k.a[i], k.b[i] = next(), next()
	}
	for i := range k.keys {
		k.keys[i] = next()
	}
	for i := range k.ring {
		k.ring[i] = make([]float64, refColumn)
	}
	return k
}

// run executes the kernel once over the first ringSize columns and returns
// its result, which does not depend on earlier runs: every column it reads
// was filled refLag steps earlier in the same run (the stride 5 is coprime to
// both ring sizes, and both are larger than refLag).  The explicit float64
// conversions forbid fused multiply-add, so the result has the same bits on
// every architecture.
func (k *refKernel) run(ringSize int) float64 {
	var acc float64
	for it := 0; it < refColumns; it++ {
		col := k.ring[(it*5)%ringSize]
		c := float64(it%7) + 0.5
		for i := range col {
			col[i] = float64(k.a[i]*c) + k.b[i]
		}
		if it >= refLag {
			var s float64
			for i, v := range k.ring[((it-refLag)*5)%ringSize] {
				s += float64(v * col[i])
			}
			acc += s
		}
	}
	copy(k.scratch, k.keys)
	sort.Float64s(k.scratch)
	clear(k.counts)
	for i := 0; i < refMapOps; i++ {
		k.counts[(i*7919)%1021] += k.scratch[i%refKeys]
	}
	return acc + k.counts[0] + k.counts[509] + k.counts[1020] + k.scratch[refKeys/2]
}

// yardstick runs one kernel per engine worker at the same time and times
// until the last has finished: behind the two-worker coordinator a segment
// is only as fast as the box's second processor is free, and a one-worker
// kernel would not see that.
type yardstick struct {
	workers []*refKernel
}

func newYardstick(workers int) *yardstick {
	y := &yardstick{}
	for i := 0; i < workers; i++ {
		y.workers = append(y.workers, newRefKernel())
	}
	return y
}

// timeRing times one kernel run over the given ring on every worker.
func (y *yardstick) timeRing(ringSize int) (ms, result float64) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, k := range y.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.run(ringSize)
		}()
	}
	result = y.workers[0].run(ringSize)
	wg.Wait()
	return float64(time.Since(start)) / float64(time.Millisecond), result
}

// measure takes one reading.  It fails when the kernel no longer computes
// what it did when the checksum was pinned: numbers normalised by a different
// kernel do not compare with earlier ones.
func (y *yardstick) measure() (reading, error) {
	var r reading
	var small, large float64
	r.inCache, small = y.timeRing(refRingCache)
	r.pastCache, large = y.timeRing(refRingMem)
	if got := math.Float64bits(small + large); got != refChecksum {
		return r, fmt.Errorf("reference kernel checksum %#x, pinned %#x: the yardstick changed, earlier numbers no longer compare", got, refChecksum)
	}
	return r, nil
}

// norm rescales a wall time taken between two readings to reference-speed
// units, for a segment of the given footprint.
func norm(wall time.Duration, f footprint, before, after reading) float64 {
	return float64(wall) / float64(time.Millisecond) * refNominalMS / ((before.speed(f) + after.speed(f)) / 2)
}
