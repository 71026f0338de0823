// Package baseline implements the two reference methods the paper compares
// against:
//
//   - W_N — the naive method that computes every statistical measure from
//     scratch by scanning the raw series for each query;
//   - W_F — the DFT method of refs [1–3] (StatStream-style) that approximates
//     the Pearson correlation coefficient from the largest DFT coefficients
//     of the normalized series.
//
// The Affinity methods (W_A and the SCAPE index) live in internal/symex,
// internal/scape and internal/core; keeping the baselines in their own
// package makes the experiment harness explicit about which code path is
// being measured.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"affinity/internal/dft"
	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// ErrNotPrecomputed is returned when a W_F query is issued before Precompute.
var ErrNotPrecomputed = errors.New("baseline: DFT coefficients not precomputed")

// Naive is the W_N method: it holds a reference to the data matrix and
// computes every requested measure from the raw series.  Full-dataset scans
// run on the blocked columnar kernels (internal/kernel), built lazily once
// per window and byte-identical to the scalar evaluation; single-pair lookups
// stay scalar.
type Naive struct {
	data *timeseries.DataMatrix

	kernOnce sync.Once
	kern     *kernel.Matrix
	kernMom  *kernel.Moments
	kernErr  error
}

// NewNaive returns a W_N baseline over the data matrix.
func NewNaive(d *timeseries.DataMatrix) *Naive { return &Naive{data: d} }

// Kernel returns the lazily built columnar mirror of the window and its
// hoisted per-series moments, shared by every blocked scan over this window
// (the engine's sweep and batch executors call this too).  Safe for
// concurrent use; the window is immutable for the lifetime of the Naive.
func (n *Naive) Kernel() (*kernel.Matrix, *kernel.Moments, error) {
	n.kernOnce.Do(func() {
		n.kern, n.kernErr = kernel.FromData(n.data)
		if n.kernErr != nil {
			return
		}
		n.kernMom, n.kernErr = n.kern.Moments()
	})
	return n.kern, n.kernMom, n.kernErr
}

// Location computes an L-measure for the requested series from scratch: the
// measure's EvalLocation over each raw series.
func (n *Naive) Location(m measure.Measure, ids []timeseries.SeriesID) ([]float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Location() {
		return nil, fmt.Errorf("%w: %v is not an L-measure", measure.ErrUnknownMeasure, m)
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		s, err := n.data.Series(id)
		if err != nil {
			return nil, err
		}
		if out[i], err = sp.EvalLocation(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pairwise computes a T- or D-measure for every pair among the requested
// series from scratch, returned as a symmetric |ids|-by-|ids| matrix in the
// order given.  Pairs with an undefined derived value are reported as NaN.
// The upper triangle (diagonal included) runs on the blocked kernels in
// request order; results are byte-identical to per-pair scalar evaluation.
func (n *Naive) Pairwise(m measure.Measure, ids []timeseries.SeriesID) ([][]float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("%w: %v is not a pairwise measure", measure.ErrUnknownMeasure, m)
	}
	for _, id := range ids {
		if _, err := n.data.Series(id); err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(ids))
	for i := range out {
		out[i] = make([]float64, len(ids))
	}
	// The kernels are symmetric in (U, V) and accept U == V, so the triangle
	// enumerates raw column index pairs without canonicalization.
	pairs := make([]timeseries.Pair, 0, len(ids)*(len(ids)+1)/2)
	for i := range ids {
		for j := i; j < len(ids); j++ {
			pairs = append(pairs, timeseries.Pair{U: ids[i], V: ids[j]})
		}
	}
	values := make([]float64, len(pairs))
	if err := n.SweepValues(sp, pairs, values); err != nil {
		return nil, err
	}
	k := 0
	for i := range ids {
		for j := i; j < len(ids); j++ {
			out[i][j] = values[k]
			out[j][i] = values[k]
			k++
		}
	}
	return out, nil
}

// SweepValues fills values[i] with the naive evaluation of sp for pairs[i],
// NaN where the measure is undefined, using the blocked kernels (bit-equal
// to the scalar path); bases without a blocked kernel fall back to per-pair
// scalar evaluation.  Pairs are raw column index pairs: U == V is allowed and
// yields the measure of a series with itself.  len(values) must equal
// len(pairs); callers shard pair ranges across workers by slicing both.
func (n *Naive) SweepValues(sp *measure.Spec, pairs []timeseries.Pair, values []float64) error {
	kern, mom, err := n.Kernel()
	if err != nil {
		return err
	}
	baseBlock := kern.BaseBlock(sp.Base)
	if baseBlock == nil {
		return n.sweepValuesScalar(sp, pairs, values)
	}
	numSamples := n.data.NumSamples()
	for lo := 0; lo < len(pairs); lo += kernel.BlockPairs {
		hi := lo + kernel.BlockPairs
		if hi > len(pairs) {
			hi = len(pairs)
		}
		chunk, out := pairs[lo:hi], values[lo:hi]
		baseBlock(mom, chunk, out)
		if !sp.Derived() {
			continue
		}
		for i, p := range chunk {
			u := sp.Param(mom.Stat(p.U), mom.Stat(p.V))
			v, err := sp.EvalOrNaN(out[i], u, numSamples)
			if err != nil {
				return err
			}
			out[i] = v
		}
	}
	return nil
}

// sweepValuesScalar is the per-pair fallback for bases without a blocked
// kernel; it is also the reference implementation the kernel parity tests
// compare against.
func (n *Naive) sweepValuesScalar(sp *measure.Spec, pairs []timeseries.Pair, values []float64) error {
	for i, p := range pairs {
		su, err := n.data.Series(p.U)
		if err != nil {
			return err
		}
		sv, err := n.data.Series(p.V)
		if err != nil {
			return err
		}
		v, err := measure.OrNaN(measure.EvalPair(sp.ID, su, sv))
		if err != nil {
			return err
		}
		values[i] = v
	}
	return nil
}

// PairValue computes a single pairwise measure from scratch.
func (n *Naive) PairValue(m measure.Measure, e timeseries.Pair) (float64, error) {
	su, err := n.data.Series(e.U)
	if err != nil {
		return 0, err
	}
	sv, err := n.data.Series(e.V)
	if err != nil {
		return 0, err
	}
	return measure.EvalPair(m, su, sv)
}

// PairInterval evaluates an interval (MET/MER) query with one blocked sweep
// over the sequence pairs: base values reduce block-at-a-time, undefined
// derived values propagate as NaN, and the interval predicate compacts the
// block branch-free (NaN never matches).
func (n *Naive) PairInterval(m measure.Measure, iv interval.Interval) ([]timeseries.Pair, error) {
	if iv.Empty() {
		return nil, fmt.Errorf("baseline: empty interval %v", iv)
	}
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("%w: %v is not a pairwise measure", measure.ErrUnknownMeasure, m)
	}
	numPairs := n.data.NumPairs()
	var out []timeseries.Pair
	scratch := make([]timeseries.Pair, kernel.BlockPairs)
	values := make([]float64, kernel.BlockPairs)
	for lo := 0; lo < numPairs; lo += kernel.BlockPairs {
		chunk := n.data.PairsAt(lo, scratch[:min(kernel.BlockPairs, numPairs-lo)])
		if err := n.SweepValues(sp, chunk, values[:len(chunk)]); err != nil {
			return nil, err
		}
		out = kernel.CompactPairs(out, chunk, values, iv)
	}
	return out, nil
}

// SeriesInterval evaluates an interval query over an L-measure from scratch.
func (n *Naive) SeriesInterval(m measure.Measure, iv interval.Interval) ([]timeseries.SeriesID, error) {
	if iv.Empty() {
		return nil, fmt.Errorf("baseline: empty interval %v", iv)
	}
	values, err := n.Location(m, n.data.IDs())
	if err != nil {
		return nil, err
	}
	var out []timeseries.SeriesID
	for id, v := range values {
		if iv.Contains(v) {
			out = append(out, timeseries.SeriesID(id))
		}
	}
	return out, nil
}

// DefaultDFTCoefficients is the number of retained DFT coefficients used by
// the paper's W_F baseline ("the five largest DFT coefficients").
const DefaultDFTCoefficients = 5

// DFT is the W_F baseline: the Pearson correlation coefficient approximated
// from the largest DFT coefficients of the normalized series.  It only
// supports the correlation coefficient, which is exactly the limitation the
// paper points out when comparing against it.
type DFT struct {
	data      *timeseries.DataMatrix
	numCoeffs int
	// coeffs[v] maps frequency index -> coefficient of the normalized series v.
	coeffs []map[int]complex128
	// degenerate[v] marks constant series whose correlation is undefined.
	degenerate []bool
}

// NewDFT returns a W_F baseline retaining numCoeffs coefficients per series
// (<= 0 selects DefaultDFTCoefficients).
func NewDFT(d *timeseries.DataMatrix, numCoeffs int) *DFT {
	if numCoeffs <= 0 {
		numCoeffs = DefaultDFTCoefficients
	}
	return &DFT{data: d, numCoeffs: numCoeffs}
}

// Precompute transforms every series: it normalizes the series to zero mean
// and unit energy, computes its DFT and retains the numCoeffs largest
// coefficients.  This is the W_F method's one-time cost.
func (w *DFT) Precompute() error {
	n := w.data.NumSeries()
	w.coeffs = make([]map[int]complex128, n)
	w.degenerate = make([]bool, n)
	mom := w.data.Moments()
	for _, id := range w.data.IDs() {
		s, err := w.data.Series(id)
		if err != nil {
			return err
		}
		normalized, ok := normalizeSeries(s, mom.Mean[id], mom.Variance[id])
		if !ok {
			w.degenerate[id] = true
			w.coeffs[id] = map[int]complex128{}
			continue
		}
		top, err := dft.TopCoefficients(normalized, w.numCoeffs)
		if err != nil {
			return err
		}
		m := make(map[int]complex128, len(top))
		for _, c := range top {
			m[c.Index] = c.Value
		}
		w.coeffs[id] = m
	}
	return nil
}

// normalizeSeries returns (x - mean) / (std * sqrt(m-1)), given the mean and
// variance of x, so that the inner product of two normalized series equals
// their Pearson correlation.  The second return value is false for constant
// series.
func normalizeSeries(x []float64, mean, variance float64) ([]float64, bool) {
	if variance == 0 {
		return nil, false
	}
	scale := math.Sqrt(variance * float64(len(x)-1))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - mean) / scale
	}
	return out, true
}

// ApproxCorrelation approximates the Pearson correlation coefficient of a
// pair of series from the retained DFT coefficients: by Parseval's theorem
// the correlation equals (1/m)·Re(Σ_k X_k·conj(Y_k)) for the normalized
// series, and the sum is truncated to the retained coefficients.
func (w *DFT) ApproxCorrelation(e timeseries.Pair) (float64, error) {
	if w.coeffs == nil {
		return 0, ErrNotPrecomputed
	}
	if int(e.V) >= len(w.coeffs) || e.U < 0 || !e.Valid() {
		return 0, fmt.Errorf("%w: %v", timeseries.ErrInvalidPair, e)
	}
	if w.degenerate[e.U] || w.degenerate[e.V] {
		return 0, measure.ErrZeroNormalizer
	}
	cu := w.coeffs[e.U]
	cv := w.coeffs[e.V]
	var sum float64
	for k, xu := range cu {
		if xv, ok := cv[k]; ok {
			sum += real(xu)*real(xv) + imag(xu)*imag(xv)
		}
	}
	corr := sum / float64(w.data.NumSamples())
	if corr > 1 {
		corr = 1
	} else if corr < -1 {
		corr = -1
	}
	return corr, nil
}

// PairThreshold evaluates a correlation MET query with the W_F method: the
// approximate correlation is computed for every pair and filtered.
func (w *DFT) PairThreshold(tau float64, above bool) ([]timeseries.Pair, error) {
	if w.coeffs == nil {
		return nil, ErrNotPrecomputed
	}
	var out []timeseries.Pair
	for _, e := range w.data.AllPairs() {
		v, err := w.ApproxCorrelation(e)
		if err != nil {
			if errors.Is(err, measure.ErrZeroNormalizer) {
				continue
			}
			return nil, err
		}
		if (above && v > tau) || (!above && v < tau) {
			out = append(out, e)
		}
	}
	return out, nil
}

// PairRange evaluates a correlation MER query with the W_F method.
func (w *DFT) PairRange(lo, hi float64) ([]timeseries.Pair, error) {
	if w.coeffs == nil {
		return nil, ErrNotPrecomputed
	}
	if lo > hi {
		return nil, fmt.Errorf("baseline: empty range [%v, %v]", lo, hi)
	}
	var out []timeseries.Pair
	for _, e := range w.data.AllPairs() {
		v, err := w.ApproxCorrelation(e)
		if err != nil {
			if errors.Is(err, measure.ErrZeroNormalizer) {
				continue
			}
			return nil, err
		}
		if v >= lo && v <= hi {
			out = append(out, e)
		}
	}
	return out, nil
}
