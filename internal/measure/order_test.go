package measure

import (
	"math"
	"math/rand"
	"testing"
)

var negZero = math.Copysign(0, -1)

// orderWindows are the windows the order-statistic tests share: odd and even
// lengths, all-zero, mixed-sign-zero and constant windows, plus the value
// ranges where the mode's bucket index leaves int64.
var orderWindows = []struct {
	name   string
	x      []float64
	median float64
}{
	{"odd", []float64{3, -1, 2, 7, 0.5}, 2},
	{"even", []float64{4, 1, 3, 2}, 2.5},
	{"one", []float64{-2.25}, -2.25},
	{"all +0 odd", []float64{0, 0, 0}, 0},
	{"all -0 odd", []float64{negZero, negZero, negZero}, negZero},
	{"all -0 even", []float64{negZero, negZero}, negZero},
	{"zeros, -0 in the middle", []float64{0, negZero, negZero}, negZero},
	{"zeros, +0 in the middle", []float64{0, negZero, 0}, 0},
	{"zeros even", []float64{0, negZero}, 0},
	{"middle straddles -0|+0", []float64{5, 0, -1, negZero, 1}, 0},
	{"middle is the last -0", []float64{5, negZero, -1, negZero, 0, 1, -3}, negZero},
	{"constant", []float64{1.5, 1.5, 1.5, 1.5}, 1.5},
	{"huge", []float64{1e150, -1e150, 1e150, 3, -1e150, 1e150}, (3 + 1e150) / 2},
	{"denormal", []float64{5e-324, -5e-324, 0, 1e-310, negZero}, 0},
}

// TestMedianTotalOrder pins the sign bit of a median read off a ±0 run: the
// sort order is (value, −0 before +0), so the result is the same bits for
// every arrangement of the window and for both routes to it.
func TestMedianTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range orderWindows {
		x := append([]float64(nil), w.x...)
		for trial := 0; trial < 20; trial++ {
			got, err := MedianOf(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(w.median) {
				t.Fatalf("%s: MedianOf(%v) = %v (bits %x), want %v (bits %x)",
					w.name, x, got, math.Float64bits(got), w.median, math.Float64bits(w.median))
			}
			sorted := append([]float64(nil), x...)
			SortSamples(sorted)
			for i := 1; i < len(sorted); i++ {
				if SampleLess(sorted[i], sorted[i-1]) {
					t.Fatalf("%s: SortSamples left %v out of order", w.name, sorted)
				}
			}
			fromSorted, err := MedianOfSorted(sorted)
			if err != nil || math.Float64bits(fromSorted) != math.Float64bits(got) {
				t.Fatalf("%s: MedianOfSorted(%v) = %v, %v; MedianOf gave %v", w.name, sorted, fromSorted, err, got)
			}
			rng.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
		}
	}
}

// TestModeOfSortedMatchesModeOf: the run-length pass over a sorted window
// and the hash count over the raw one return the same bits, ties to the
// smallest bucket, on the same windows — including samples whose bucket
// index saturates.
func TestModeOfSortedMatchesModeOf(t *testing.T) {
	for _, w := range orderWindows {
		for _, precision := range []float64{0, 0.5, 1e-9} {
			want, err := ModeOf(w.x, precision)
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]float64(nil), w.x...)
			SortSamples(sorted)
			got, err := ModeOfSorted(sorted, precision)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s precision %v: ModeOfSorted = %v, %v; ModeOf = %v", w.name, precision, got, err, want)
			}
		}
	}
	// Two buckets tie at two samples each: the smaller one wins on both routes.
	tie := []float64{2, 1, 2, 1, 5}
	SortSamples(tie)
	if got, _ := ModeOfSorted(tie, 0); got != 1 {
		t.Fatalf("tie went to %v, want the smallest bucket 1", got)
	}
	// Saturation keeps the bucket index monotone: the two ends of the range
	// do not fall into one bucket.
	if lo, hi := modeBucket(-1e300, 1e-4), modeBucket(1e300, 1e-4); lo != math.MinInt64 || hi != math.MaxInt64 {
		t.Fatalf("bucket of ∓1e300 = %d, %d; want the int64 extremes", lo, hi)
	}
	if _, err := ModeOfSorted(nil, 0); err != ErrEmptyInput {
		t.Fatalf("ModeOfSorted(nil) err = %v", err)
	}
	if _, err := MedianOfSorted(nil); err != ErrEmptyInput {
		t.Fatalf("MedianOfSorted(nil) err = %v", err)
	}
}
