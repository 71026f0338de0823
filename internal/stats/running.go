package stats

import (
	"fmt"
	"math"

	"affinity/internal/mat"
)

// This file implements incremental sufficient statistics for the streaming
// engine: running sums (Σx, Σx², Σxy) that support O(1) add and evict per
// sample, so that sliding-window statistics — per-series variance and squared
// norm, and the 2-by-2 pivot summaries Σ(O_p), Π(O_p) and h(O_p) — can be
// maintained without rescanning the raw window.
//
// The moment-based formulas (e.g. var = (Σx² − n·x̄²)/(n−1)) trade a small
// amount of numerical headroom against the two-pass formulas in scalar.go:
// after many add/evict cycles the running sums can accumulate rounding error,
// which is why the streaming engine periodically refreshes them from the raw
// window (StreamConfig.StatsRefreshEvery).  Tests assert agreement with the
// two-pass computations to ~1e-9 relative error on realistic data.

// Running maintains the sufficient statistics of one series window:
// the sample count, Σx and Σx².
type Running struct {
	n     int
	sum   float64
	sumSq float64
}

// NewRunningFrom returns running statistics seeded from a full window.
func NewRunningFrom(x []float64) Running {
	var r Running
	r.Add(x...)
	return r
}

// RunningFromSums returns the running statistics of n samples whose Σx and
// Σx² the caller already holds — each reduced in sample order from zero, as
// Add would have (a window's memoised Sum and SqNorm are) — so seeding costs
// no pass over the window.
func RunningFromSums(n int, sum, sumSq float64) Running {
	return Running{n: n, sum: sum, sumSq: sumSq}
}

// Add folds new samples into the window.
func (r *Running) Add(xs ...float64) {
	for _, x := range xs {
		r.n++
		r.sum += x
		r.sumSq += x * x
	}
}

// Evict removes samples that left the window.  The caller supplies the
// evicted values (the window owner knows them); evicting more samples than
// were added corrupts the statistics and is the caller's responsibility to
// avoid.
func (r *Running) Evict(xs ...float64) {
	for _, x := range xs {
		r.n--
		r.sum -= x
		r.sumSq -= x * x
	}
}

// Count returns the number of samples currently in the window.
func (r *Running) Count() int { return r.n }

// Sum returns Σx.
func (r *Running) Sum() float64 { return r.sum }

// SqNorm returns Σx², the squared Euclidean norm of the window.
func (r *Running) SqNorm() float64 { return r.sumSq }

// Mean returns the window mean, or 0 for an empty window.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Variance returns the sample variance (normalized by n−1) computed from the
// sufficient statistics, clamped at zero against rounding excursions.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	mean := r.sum / float64(r.n)
	v := (r.sumSq - float64(r.n)*mean*mean) / float64(r.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// RunningPair maintains the joint sufficient statistics of two aligned series
// windows: the count and Σx, Σy, Σx², Σy², Σxy.  It backs the pivot summary
// quantities (Eq. 2 and Eq. 7 of the paper) with O(1) updates.
type RunningPair struct {
	n     int
	sumX  float64
	sumY  float64
	sumXX float64
	sumYY float64
	sumXY float64
}

// NewRunningPairFrom returns joint running statistics seeded from two full,
// equally long windows.
func NewRunningPairFrom(x, y []float64) (RunningPair, error) {
	var r RunningPair
	if len(x) != len(y) {
		return r, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	for i := range x {
		r.Add(x[i], y[i])
	}
	return r, nil
}

// RunningPairFromSums returns the joint running statistics of n aligned sample
// pairs whose sums the caller already holds — each reduced in sample order
// from zero, as Add would have — so the moment formulas below apply without
// another pass over the windows.
func RunningPairFromSums(n int, sumX, sumY, sumXX, sumYY, sumXY float64) RunningPair {
	return RunningPair{n: n, sumX: sumX, sumY: sumY, sumXX: sumXX, sumYY: sumYY, sumXY: sumXY}
}

// Add folds one aligned sample pair into the window.
func (r *RunningPair) Add(x, y float64) {
	r.n++
	r.sumX += x
	r.sumY += y
	r.sumXX += x * x
	r.sumYY += y * y
	r.sumXY += x * y
}

// Evict removes one aligned sample pair that left the window.
func (r *RunningPair) Evict(x, y float64) {
	r.n--
	r.sumX -= x
	r.sumY -= y
	r.sumXX -= x * x
	r.sumYY -= y * y
	r.sumXY -= x * y
}

// Count returns the number of aligned sample pairs in the window.
func (r *RunningPair) Count() int { return r.n }

// Sums returns (Σx, Σy): the h(X) column sums of Eq. 7.
func (r *RunningPair) Sums() [2]float64 { return [2]float64{r.sumX, r.sumY} }

// Covariance returns the sample covariance Σ12 (normalized by n−1).
func (r *RunningPair) Covariance() float64 {
	if r.n < 2 {
		return 0
	}
	nf := float64(r.n)
	return (r.sumXY - r.sumX*r.sumY/nf) / (nf - 1)
}

// VarianceX returns the sample variance of the first window.
func (r *RunningPair) VarianceX() float64 {
	return varianceFromSums(r.n, r.sumX, r.sumXX)
}

// VarianceY returns the sample variance of the second window.
func (r *RunningPair) VarianceY() float64 {
	return varianceFromSums(r.n, r.sumY, r.sumYY)
}

// DotProduct returns Σxy.
func (r *RunningPair) DotProduct() float64 { return r.sumXY }

// CovarianceMatrix returns the 2-by-2 sample covariance matrix Σ(X) of the
// pair window (Eq. 2), matching stats.PairMatrixCovariance.
func (r *RunningPair) CovarianceMatrix() *mat.Matrix {
	out := mat.New(2, 2)
	cov := r.Covariance()
	out.Set(0, 0, r.VarianceX())
	out.Set(0, 1, cov)
	out.Set(1, 0, cov)
	out.Set(1, 1, r.VarianceY())
	return out
}

// GramMatrix returns the 2-by-2 dot product (Gram) matrix Π(X) of the pair
// window, matching stats.PairMatrixDotProduct.
func (r *RunningPair) GramMatrix() *mat.Matrix {
	out := mat.New(2, 2)
	out.Set(0, 0, r.sumXX)
	out.Set(0, 1, r.sumXY)
	out.Set(1, 0, r.sumXY)
	out.Set(1, 1, r.sumYY)
	return out
}

// Correlation returns the Pearson correlation coefficient of the pair window,
// clamped to [−1, 1], with ErrZeroNormalizer when either variance is zero.
func (r *RunningPair) Correlation() (float64, error) {
	vx, vy := r.VarianceX(), r.VarianceY()
	if vx == 0 || vy == 0 {
		return 0, ErrZeroNormalizer
	}
	rho := r.Covariance() / math.Sqrt(vx*vy)
	if rho > 1 {
		rho = 1
	} else if rho < -1 {
		rho = -1
	}
	return rho, nil
}

// LineFit returns the least-squares coefficients (a, b) of y ≈ a·x + b
// together with the fraction of y's centered energy left unexplained by the
// fit (1 − R², in [0, 1]).  A degenerate x yields a = 0, b = ȳ; a constant y
// yields quality residual 0 (the fit is exact).
//
// The residual fraction is the streaming engine's LSFD-drift proxy: the LSFD
// between a pivot pair matrix [s_c, r] and a sequence pair matrix [s_c, s_o]
// is the energy of ŝ_o outside the best rank-2 subspace of the centered
// concatenation, which is upper-bounded by the residual of ŝ_o against r
// alone; tracking how this fraction moves between refits bounds how stale an
// affine relationship has become.
func (r *RunningPair) LineFit() (a, b, residFrac float64) {
	if r.n == 0 {
		return 0, 0, 0
	}
	nf := float64(r.n)
	sxxC := r.sumXX - r.sumX*r.sumX/nf
	syyC := r.sumYY - r.sumY*r.sumY/nf
	sxyC := r.sumXY - r.sumX*r.sumY/nf
	if sxxC <= 0 {
		b = r.sumY / nf
		return 0, b, 0
	}
	a = sxyC / sxxC
	b = (r.sumY - a*r.sumX) / nf
	if syyC <= 0 {
		return a, b, 0
	}
	resid := syyC - sxyC*sxyC/sxxC
	if resid < 0 {
		resid = 0
	}
	return a, b, resid / syyC
}

func varianceFromSums(n int, sum, sumSq float64) float64 {
	if n < 2 {
		return 0
	}
	nf := float64(n)
	mean := sum / nf
	v := (sumSq - nf*mean*mean) / (nf - 1)
	if v < 0 {
		return 0
	}
	return v
}
