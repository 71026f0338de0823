package measure

import (
	"fmt"
	"math"
	"slices"
)

// Scalar statistic primitives.  These are the raw-series building blocks the
// built-in specs are assembled from, and the from-scratch evaluators every
// layer and test names directly.  They are deliberately two-pass (mean
// then moments), which avoids the cancellation of the one-pass sums formula
// (Σx² − m·x̄²)/(m−1); every second moment the engine reads — W_N, W_A and
// the index alike — has this form.

// DefaultModePrecision is the bucket width used when computing the mode of a
// real-valued series.  Real measurements rarely repeat exactly, so the mode
// is computed over values rounded to this precision (the paper computes the
// mode of sensor readings and stock quotes, which are quantized to a small
// number of decimals).
const DefaultModePrecision = 1e-4

// MeanOf returns the arithmetic mean of the samples.
func MeanOf(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x)), nil
}

// SortSamples sorts x in place under the one total order every sorted sample
// window uses: by value, with −0 before +0.  slices.Sort alone treats the two
// zeros as equal and leaves them in whatever order its pivoting produced, so a
// median read off the middle of a ±0 run would carry an arbitrary sign bit —
// and a sorted window maintained by insertion could not reproduce it.  Under
// this order two samples compare equal only when they are the same bits
// (samples are never NaN), so every route to the sorted window yields the same
// slice.
func SortSamples(x []float64) {
	slices.Sort(x)
	lo, _ := slices.BinarySearch(x, 0) // first ±0, if any
	hi, neg := lo, 0
	for ; hi < len(x) && x[hi] == 0; hi++ {
		if math.Signbit(x[hi]) {
			neg++
		}
	}
	for i := lo; i < hi; i++ {
		x[i] = 0
		if i-lo < neg {
			x[i] = math.Copysign(0, -1)
		}
	}
}

// SampleLess is the strict total order of SortSamples.
func SampleLess(a, b float64) bool {
	return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
}

// MedianOf returns the median of the samples (the average of the two middle
// values for an even count).
func MedianOf(x []float64) (float64, error) {
	sorted := make([]float64, len(x))
	copy(sorted, x)
	SortSamples(sorted)
	return MedianOfSorted(sorted)
}

// MedianOfSorted is MedianOf for samples already in SortSamples order: the
// median is read off the middle without copying or sorting.
func MedianOfSorted(sorted []float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmptyInput
	}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid], nil
	}
	return (sorted[mid-1] + sorted[mid]) / 2, nil
}

// modeBucket maps a sample to its bucket index round(v/precision).  The
// conversion saturates, so the index is non-decreasing in v over every finite
// sample (Go leaves an out-of-range float→int conversion to the platform).
func modeBucket(v, precision float64) int64 {
	b := math.Round(v / precision)
	switch {
	case b >= 1<<63:
		return math.MaxInt64
	case b <= -(1 << 63):
		return math.MinInt64
	}
	return int64(b)
}

// ModeOf returns the mode of the samples after rounding them to the given
// precision (bucket width).  Ties are broken by the smallest value so the
// result is deterministic.  A non-positive precision falls back to
// DefaultModePrecision.
func ModeOf(x []float64, precision float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	if precision <= 0 {
		precision = DefaultModePrecision
	}
	counts := make(map[int64]int, len(x))
	for _, v := range x {
		counts[modeBucket(v, precision)]++
	}
	bestBucket := int64(math.MaxInt64)
	bestCount := -1
	for bucket, count := range counts {
		if count > bestCount || (count == bestCount && bucket < bestBucket) {
			bestCount = count
			bestBucket = bucket
		}
	}
	return float64(bestBucket) * precision, nil
}

// ModeOfSorted is ModeOf for samples already in SortSamples order.  Bucket
// indices are non-decreasing along a sorted slice, so every bucket is one run:
// a single pass counts the runs, and keeping the first run of maximal length
// is ModeOf's smallest-bucket tie-break — no map, no allocation.
func ModeOfSorted(sorted []float64, precision float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmptyInput
	}
	if precision <= 0 {
		precision = DefaultModePrecision
	}
	bestBucket, bestCount := int64(0), 0
	runBucket, runCount := modeBucket(sorted[0], precision), 0
	for _, v := range sorted {
		if b := modeBucket(v, precision); b != runBucket {
			if runCount > bestCount {
				bestBucket, bestCount = runBucket, runCount
			}
			runBucket, runCount = b, 0
		}
		runCount++
	}
	if runCount > bestCount {
		bestBucket = runBucket
	}
	return float64(bestBucket) * precision, nil
}

// SumOf returns the sum of the samples (h(X) in Eq. 7 of the paper).
func SumOf(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum
}

// VarianceOf returns the sample variance (normalized by m-1) of the samples.
// A single sample has variance zero.
func VarianceOf(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	if len(x) == 1 {
		return 0, nil
	}
	mean, _ := MeanOf(x)
	var ss float64
	for _, v := range x {
		d := v - mean
		ss += d * d
	}
	return ss / float64(len(x)-1), nil
}

// CovarianceOf returns the sample covariance (normalized by m-1) between two
// equally long series.
func CovarianceOf(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptyInput
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if len(x) == 1 {
		return 0, nil
	}
	mx, _ := MeanOf(x)
	my, _ := MeanOf(y)
	var ss float64
	for i := range x {
		ss += (x[i] - mx) * (y[i] - my)
	}
	return ss / float64(len(x)-1), nil
}

// DotProductOf returns the inner product Σ x_i·y_i of two equally long
// series.
func DotProductOf(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptyInput
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum, nil
}

// RMSE computes the percentage root-mean-square error between true and
// approximated values after normalizing both by (max(true) - min(true)),
// exactly as defined in Eq. 16 of the paper.  It returns 0 for empty input
// and treats a zero range as an exact match check.
func RMSE(truth, approx []float64) (float64, error) {
	if len(truth) != len(approx) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(truth), len(approx))
	}
	if len(truth) == 0 {
		return 0, nil
	}
	minV, maxV := truth[0], truth[0]
	for _, v := range truth {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	rangeV := maxV - minV
	var sum float64
	for i := range truth {
		diff := truth[i] - approx[i]
		if rangeV != 0 {
			diff /= rangeV
		}
		sum += diff * diff
	}
	return 100 * math.Sqrt(sum/float64(len(truth))), nil
}
