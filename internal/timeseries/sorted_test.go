package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/measure"
)

// The sorted columns of a window are slid by SlideCopy, never re-sorted.
// These tests hold every slid column to a from-scratch sort of the window it
// belongs to, and the order statistics read off it to the raw-series
// evaluators, bit for bit.

// sampleSource draws samples of one flavour; every flavour is a way for a
// slid sorted column to go wrong that plain random data would not reach.
func sampleSource(flavour uint8, rng *rand.Rand) func() float64 {
	negZero := math.Copysign(0, -1)
	switch flavour % 6 {
	case 0: // heavy duplicates
		return func() float64 { return float64(rng.Intn(5)) * 0.25 }
	case 1: // both zeros between small values
		return func() float64 { return []float64{0, negZero, 1, -1, 0, negZero}[rng.Intn(6)] }
	case 2: // a constant series
		return func() float64 { return 3.5 }
	case 3: // magnitudes at which the mode's bucket index saturates
		return func() float64 { return []float64{1e150, -1e150, 1e-150, -1e-150, 2, 0}[rng.Intn(6)] }
	case 4: // denormals around the zeros
		return func() float64 { return []float64{5e-324, -5e-324, 1e-310, 0, negZero, -1e-310}[rng.Intn(6)] }
	default: // continuous values: no ties at all
		return rng.NormFloat64
	}
}

// requireSortedParity checks every sorted column of d against a from-scratch
// sort of the series, and the order statistics against MedianOf / ModeOf.
func requireSortedParity(t testing.TB, d *DataMatrix, step int) {
	t.Helper()
	for _, id := range d.IDs() {
		raw, _ := d.Series(id)
		got, err := d.SortedSeries(id)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), raw...)
		measure.SortSamples(want)
		if len(got) != len(want) {
			t.Fatalf("step %d series %d: sorted column has %d samples, want %d", step, id, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d series %d: sorted[%d] = %v (bits %x), from-scratch sort has %v (bits %x)\n slid %v\n sort %v",
					step, id, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), got, want)
			}
		}
		median, _ := measure.MedianOf(raw)
		mode, _ := measure.ModeOf(raw, 0)
		if m, err := measure.MedianOfSorted(got); err != nil || math.Float64bits(m) != math.Float64bits(median) {
			t.Fatalf("step %d series %d: median off the sorted column = %v, %v; MedianOf = %v", step, id, m, err, median)
		}
		if m, err := measure.ModeOfSorted(got, 0); err != nil || math.Float64bits(m) != math.Float64bits(mode) {
			t.Fatalf("step %d series %d: mode off the sorted column = %v, %v; ModeOf = %v", step, id, m, err, mode)
		}
	}
}

// slideSequence builds an m-sample window of three series and slides it
// `steps` times by slides drawn from {1, 3, m−1, m, m+5}, checking parity
// after every step.
func slideSequence(t testing.TB, seed int64, m int, flavour uint8, steps int) {
	rng := rand.New(rand.NewSource(seed))
	sources := []func() float64{
		sampleSource(flavour, rng), sampleSource(flavour+1, rng), sampleSource(5, rng),
	}
	fill := func(count int) [][]float64 {
		out := make([][]float64, len(sources))
		for v, next := range sources {
			out[v] = make([]float64, count)
			for i := range out[v] {
				out[v][i] = next()
			}
		}
		return out
	}
	d, err := NewDataMatrix(fill(m))
	if err != nil {
		t.Fatal(err)
	}
	requireSortedParity(t, d, 0)
	slides := []int{1, 3, m - 1, m, m + 5}
	for step := 1; step <= steps; step++ {
		slide := slides[rng.Intn(len(slides))]
		if slide < 1 {
			slide = 1
		}
		before, _ := d.SortedSeries(0)
		snapshot := append([]float64(nil), before...)
		next, err := d.SlideCopy(fill(slide))
		if err != nil {
			t.Fatal(err)
		}
		for i := range snapshot {
			if math.Float64bits(before[i]) != math.Float64bits(snapshot[i]) {
				t.Fatalf("step %d: SlideCopy wrote into the receiver's sorted column", step)
			}
		}
		d = next
		requireSortedParity(t, d, step)
	}
}

func FuzzSortedWindowParity(f *testing.F) {
	for flavour := uint8(0); flavour < 6; flavour++ {
		f.Add(int64(flavour)+1, uint8(9+flavour), flavour, uint8(12))
	}
	f.Add(int64(7), uint8(1), uint8(1), uint8(6))  // one-sample window: every slide replaces it
	f.Add(int64(8), uint8(2), uint8(4), uint8(20)) // two samples: m−1 = 1
	f.Fuzz(func(t *testing.T, seed int64, m, flavour, steps uint8) {
		slideSequence(t, seed, 1+int(m)%64, flavour, int(steps)%32)
	})
}

// TestSortedWindowSoak slides one window 10⁴ times: a slid column has no
// rounding to drift, so it must still equal a from-scratch sort at the end —
// and at every step on the way.
func TestSortedWindowSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-epoch soak")
	}
	slideSequence(t, 99, 48, 1, 10000)
}

// TestSortedSeriesLifecycle: the columns are built on first use, moved on by
// SlideCopy only from a window that has them — the receiver keeps none and
// sorts afresh if asked again — and dropped by every in-place mutator.
func TestSortedSeriesLifecycle(t *testing.T) {
	d := sample3x4()
	if _, err := d.SortedSeries(3); err == nil {
		t.Fatal("SortedSeries accepted an unknown series")
	}
	batch := [][]float64{{0}, {1}, {7}}
	plain, err := d.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	if plain.sorted != nil {
		t.Fatal("SlideCopy built sorted columns its receiver never had")
	}
	requireSortedParity(t, d, 0)
	held := d.sorted
	slid, err := d.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	if slid.sorted == nil || &slid.sorted[0] != &held[0] {
		t.Fatal("SlideCopy did not move its receiver's sorted columns forward")
	}
	if d.sorted != nil {
		t.Fatal("the receiver kept the sorted columns it handed on")
	}
	requireSortedParity(t, slid, 1)
	requireSortedParity(t, d, 1) // re-sorted on demand

	mutators := map[string]func(*DataMatrix) error{
		"Append": func(x *DataMatrix) error { return x.Append("d", make([]float64, x.NumSamples())) },
	}
	for name, mutate := range mutators {
		x, err := slid.SlideCopy(batch)
		if err != nil {
			t.Fatal(err)
		}
		vals, _, _ := x.Slab()
		if vals == nil || x.sorted == nil {
			t.Fatalf("%s: SlideCopy result has no slab or no sorted columns", name)
		}
		// The columns are cap-limited views of the slab, so Append cannot
		// write into it.
		before := append([]float64(nil), vals...)
		if err := mutate(x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after, _, _ := x.Slab(); after != nil || x.sorted != nil {
			t.Fatalf("%s kept the slab marker or the sorted columns of the window it changed", name)
		}
		for i := range before {
			if math.Float64bits(vals[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s wrote into the slab at %d", name, i)
			}
		}
		requireSortedParity(t, x, 2)
	}
}

// TestLocationMatchesEvalLocation: reading an L-measure off a window
// (Location: sorted column for the order statistics, moments for the mean)
// gives the bits EvalLocation gives on the raw series, before and after a
// slide.
func TestLocationMatchesEvalLocation(t *testing.T) {
	d, err := NewDataMatrix([][]float64{
		{3, 1, 2, 2, 9, -4, 0.5},
		{0, math.Copysign(0, -1), 0, 1, -1, 0, math.Copysign(0, -1)},
		{7, 7, 7, 7, 7, 7, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(d *DataMatrix) {
		t.Helper()
		for _, m := range measure.ByClass(measure.LocationClass) {
			for _, id := range d.IDs() {
				s, _ := d.Series(id)
				want, err := measure.Lookup(m).EvalLocation(s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Location(m, id)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Location(%v, series %d) = %v, %v; EvalLocation = %v", m, id, got, err, want)
				}
			}
		}
	}
	check(d)
	next, err := d.SlideCopy([][]float64{{2, 2}, {math.Copysign(0, -1), 5}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	check(next)
	if _, err := d.Location(measure.Covariance, 0); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("Location of a pairwise measure: err = %v", err)
	}
	for _, m := range measure.ByClass(measure.LocationClass) {
		if _, err := d.Location(m, 9); !errors.Is(err, ErrInvalidSeries) {
			t.Fatalf("Location(%v) of an unknown series: err = %v", m, err)
		}
	}
}
