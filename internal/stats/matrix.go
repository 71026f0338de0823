package stats

import (
	"errors"
	"fmt"
	"math"

	"affinity/internal/mat"
	"affinity/internal/timeseries"
)

// This file contains the "from scratch" (naive, W_N) computation of the
// measure vectors/matrices L(S), T(S) and D(S) over a data matrix.  These are
// used as the baseline in the paper's experiments and as the ground truth in
// accuracy tests.

// LocationVector computes an L-measure for every series in the data matrix
// and returns the vector L(S) of length n.
func LocationVector(m Measure, d *timeseries.DataMatrix) ([]float64, error) {
	if m.Class() != LocationClass {
		return nil, fmt.Errorf("%w: %v is not an L-measure", ErrUnknownMeasure, m)
	}
	out := make([]float64, d.NumSeries())
	for _, id := range d.IDs() {
		s, err := d.Series(id)
		if err != nil {
			return nil, err
		}
		v, err := ComputeLocation(m, s)
		if err != nil {
			return nil, fmt.Errorf("series %d: %w", id, err)
		}
		out[id] = v
	}
	return out, nil
}

// PairwiseMatrix computes a T- or D-measure for every pair of series and
// returns the symmetric n-by-n matrix T(S) or D(S).  The diagonal holds the
// measure of each series with itself (variance for covariance, 1 for
// correlation, etc.).
//
// Derived measures that are undefined for a pair (zero normalizer, e.g. the
// correlation against a constant series) are recorded as 0 rather than
// aborting the whole matrix; callers that need strict behaviour should use
// ComputePair directly.
func PairwiseMatrix(m Measure, d *timeseries.DataMatrix) (*mat.Matrix, error) {
	if !m.Pairwise() {
		return nil, fmt.Errorf("%w: %v is not a pairwise measure", ErrUnknownMeasure, m)
	}
	n := d.NumSeries()
	out := mat.New(n, n)
	for u := 0; u < n; u++ {
		su, err := d.Series(timeseries.SeriesID(u))
		if err != nil {
			return nil, err
		}
		for v := u; v < n; v++ {
			sv, err := d.Series(timeseries.SeriesID(v))
			if err != nil {
				return nil, err
			}
			val, err := ComputePair(m, su, sv)
			if err != nil {
				if !errors.Is(err, ErrZeroNormalizer) {
					return nil, fmt.Errorf("pair (%d,%d): %w", u, v, err)
				}
				val = 0
			}
			out.Set(u, v, val)
			out.Set(v, u, val)
		}
	}
	return out, nil
}

// CorrelationMatrix returns the n-by-n Pearson correlation matrix ρ(S).
func CorrelationMatrix(d *timeseries.DataMatrix) (*mat.Matrix, error) {
	return PairwiseMatrix(Correlation, d)
}

// PairMeasure computes a pairwise measure for a single sequence pair directly
// from the data matrix.
func PairMeasure(m Measure, d *timeseries.DataMatrix, e timeseries.Pair) (float64, error) {
	su, err := d.Series(e.U)
	if err != nil {
		return 0, err
	}
	sv, err := d.Series(e.V)
	if err != nil {
		return 0, err
	}
	return ComputePair(m, su, sv)
}

// PairMatrixCovariance computes the 2-by-2 covariance matrix Σ(X) of an
// m-by-2 pair matrix X (Eq. 2 of the paper).
func PairMatrixCovariance(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != 2 {
		return nil, fmt.Errorf("%w: pair matrix must have 2 columns, got %d", ErrLengthMismatch, x.Cols())
	}
	c0 := x.Col(0)
	c1 := x.Col(1)
	v0, err := VarianceOf(c0)
	if err != nil {
		return nil, err
	}
	v1, err := VarianceOf(c1)
	if err != nil {
		return nil, err
	}
	cov, err := CovarianceOf(c0, c1)
	if err != nil {
		return nil, err
	}
	out := mat.New(2, 2)
	out.Set(0, 0, v0)
	out.Set(0, 1, cov)
	out.Set(1, 0, cov)
	out.Set(1, 1, v1)
	return out, nil
}

// PairMatrixLocation computes the length-2 vector of an L-measure for the two
// columns of a pair matrix.
func PairMatrixLocation(m Measure, x *mat.Matrix) ([]float64, error) {
	if x.Cols() != 2 {
		return nil, fmt.Errorf("%w: pair matrix must have 2 columns, got %d", ErrLengthMismatch, x.Cols())
	}
	l0, err := ComputeLocation(m, x.Col(0))
	if err != nil {
		return nil, err
	}
	l1, err := ComputeLocation(m, x.Col(1))
	if err != nil {
		return nil, err
	}
	return []float64{l0, l1}, nil
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
		var diff float64
		if rangeV == 0 {
			diff = truth[i] - approx[i]
		} else {
			diff = (truth[i] - approx[i]) / rangeV
		}
		sum += diff * diff
	}
	return 100 * math.Sqrt(sum/float64(len(truth))), nil
}
