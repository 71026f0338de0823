package stats

import (
	"fmt"

	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// The scalar primitives live in internal/measure (the registry's specs are
// assembled from them); this file re-exports them and provides the
// spec-driven naive evaluation entry points.

// DefaultModePrecision is the bucket width used when computing the mode of a
// real-valued series (see measure.ModeOf).
const DefaultModePrecision = measure.DefaultModePrecision

// MeanOf returns the arithmetic mean of the samples.
func MeanOf(x []float64) (float64, error) { return measure.MeanOf(x) }

// MedianOf returns the median of the samples (the average of the two middle
// values for an even count).
func MedianOf(x []float64) (float64, error) { return measure.MedianOf(x) }

// ModeOf returns the mode of the samples after rounding them to the given
// precision (bucket width); see measure.ModeOf.
func ModeOf(x []float64, precision float64) (float64, error) {
	return measure.ModeOf(x, precision)
}

// SumOf returns the sum of the samples (h(X) in Eq. 7 of the paper).
func SumOf(x []float64) float64 { return measure.SumOf(x) }

// VarianceOf returns the sample variance (normalized by m-1) of the samples.
func VarianceOf(x []float64) (float64, error) { return measure.VarianceOf(x) }

// CovarianceOf returns the sample covariance (normalized by m-1) between two
// equally long series.
func CovarianceOf(x, y []float64) (float64, error) { return measure.CovarianceOf(x, y) }

// DotProductOf returns the inner product Σ x_i·y_i of two equally long
// series.
func DotProductOf(x, y []float64) (float64, error) { return measure.DotProductOf(x, y) }

// CorrelationOf returns the Pearson correlation coefficient between two
// equally long series.  It returns ErrZeroNormalizer when either series has
// zero variance.
func CorrelationOf(x, y []float64) (float64, error) {
	return measure.EvalPair(measure.Correlation, x, y)
}

// CosineOf returns the cosine similarity x·y / (‖x‖‖y‖).
func CosineOf(x, y []float64) (float64, error) {
	return measure.EvalPair(measure.Cosine, x, y)
}

// EuclideanDistanceOf returns the Euclidean distance ‖x − y‖, evaluated
// through the algebra as √(‖x‖² + ‖y‖² − 2·x·y).
func EuclideanDistanceOf(x, y []float64) (float64, error) {
	return measure.EvalPair(measure.EuclideanDistance, x, y)
}

// NormalizerOf returns the separable parameter U of a D-measure, computed
// naively from the two series' statistics: the quantity the spec's value
// transform combines with the base T-measure (Section 2.3, Eq. 8; for the
// ratio measures U is exactly the divisor).  For L- and T-measures the
// parameter is 1.
func NormalizerOf(m Measure, x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptyInput
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	sp, ok := measure.Find(m)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownMeasure, int(m))
	}
	if !sp.Derived() {
		return 1, nil
	}
	su, err := measure.NaiveSeriesStat(sp.ParamStats, x)
	if err != nil {
		return 0, err
	}
	sv, err := measure.NaiveSeriesStat(sp.ParamStats, y)
	if err != nil {
		return 0, err
	}
	return sp.Param(su, sv), nil
}

// ComputeLocation computes an L-measure for a single series.
func ComputeLocation(m Measure, x []float64) (float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Location() {
		return 0, fmt.Errorf("%w: %v is not an L-measure", ErrUnknownMeasure, m)
	}
	return sp.EvalLocation(x)
}

// WindowLocation computes an L-measure of series id of the window d — the
// same bits as ComputeLocation over d.Series(id) — from what the window
// memoises.  Order statistics (median, mode) are read off its sorted column,
// which a streaming window slides instead of re-sorting, and the mean off its
// moments; only an L-measure with neither reduces the raw series.
func WindowLocation(m Measure, d *timeseries.DataMatrix, id timeseries.SeriesID) (float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Location() {
		return 0, fmt.Errorf("%w: %v is not an L-measure", ErrUnknownMeasure, m)
	}
	if sp.EvalSorted != nil {
		return d.EvalSorted(id, sp.EvalSorted)
	}
	s, err := d.Series(id)
	if err != nil {
		return 0, err
	}
	if m == Mean {
		return d.Moments().Mean[id], nil
	}
	return sp.EvalLocation(s)
}

// ComputePair computes a T- or D-measure for a pair of series through the
// measure's spec: the base T value from the raw samples, then the spec's
// monotone transform of it.
func ComputePair(m Measure, x, y []float64) (float64, error) {
	return measure.EvalPair(m, x, y)
}
