package core

import (
	"fmt"
	"math"

	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// This file contains the "sweep" entry points used by the experiment harness
// and the benchmarks: full-dataset MEC computations of one measure with the
// naive (W_N) and the affine (W_A) methods, exposing exactly the work the
// paper times in its efficiency/accuracy trade-off experiments (Figs. 9–11).
//
// The naive sweep runs on the blocked columnar kernels (internal/kernel):
// per-series moments are hoisted out of the pair loop and base values reduce
// a block of pairs per call, byte-identical to the scalar path at any
// parallelism (values[i] depends only on pairs[i]); the scalar per-pair path
// is the oracle of the kernel parity tests.
//
// The affine sweeps deliberately re-derive the per-measure pivot-side
// quantities from the raw pivot matrices instead of using the engine's cached
// summaries: the paper's W_A timing includes that one-time O(n·k) cost, and
// excluding it would overstate the speedup.  What follows it — the O(1)
// propagation per pair and the D-measure transform — is the engine's own
// propagation loop and deriveValues (basecolumns.go, sketchsweep.go), so the
// pairwise sweep differs from an affine query's base column in the moments it
// reads and in nothing else.

// PairSweepResult holds a full-dataset pairwise MEC result: one value per
// sequence pair, aligned with Pairs.
type PairSweepResult struct {
	Pairs  []timeseries.Pair
	Values []float64
}

// LocationSweepResult holds a full-dataset location MEC result: one value per
// series, indexed by series identifier.
type LocationSweepResult struct {
	Values []float64
}

// PairwiseSweepNaive computes a T- or D-measure for every sequence pair from
// the raw series (W_N) on the blocked kernels.  Pairs with an undefined
// derived value carry NaN.
func (e *Engine) PairwiseSweepNaive(m measure.Measure) (*PairSweepResult, error) {
	st := e.acquire()
	defer e.release(st)
	return st.pairwiseSweepNaive(m)
}

// PairwiseSweepAffine computes a T- or D-measure for every sequence pair with
// the W_A method: it reduces the pivot pair matrices for the measure's base
// T-measure (the O(n·k) one-time cost) and then propagates the value to every
// pair through its affine relationship (O(1) per pair).
func (e *Engine) PairwiseSweepAffine(m measure.Measure) (*PairSweepResult, error) {
	st := e.acquire()
	defer e.release(st)
	return st.pairwiseSweepAffine(m)
}

// LocationSweepNaive computes an L-measure for every series from the raw data
// (W_N).
func (e *Engine) LocationSweepNaive(m measure.Measure) (*LocationSweepResult, error) {
	st := e.acquire()
	defer e.release(st)
	return st.locationSweepNaive(m)
}

// LocationSweepAffine computes an L-measure for every series with the W_A
// method: the measure is computed exactly for the k cluster centers only (once
// per clustering, memoised on it) and propagated to every series through its
// 1-D affine calibration, making the per-series cost O(1) instead of O(m).
func (e *Engine) LocationSweepAffine(m measure.Measure) (*LocationSweepResult, error) {
	st := e.acquire()
	defer e.release(st)
	return st.locationSweepAffine(m)
}

// pairwiseSpec resolves a pairwise measure to its spec with the shared typed
// error.
func pairwiseSpec(m measure.Measure) (*measure.Spec, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("core: %v is not a pairwise measure: %w", m, measure.ErrUnknownMeasure)
	}
	return sp, nil
}

// pairwiseSweepNaive implements PairwiseSweepNaive for one epoch: row-block
// sharded over the blocked kernels.  values[i] depends only on pairs[i], so
// the sweep is identical at any parallelism.
func (e *engineState) pairwiseSweepNaive(m measure.Measure) (*PairSweepResult, error) {
	sp, err := pairwiseSpec(m)
	if err != nil {
		return nil, err
	}
	pairs := e.data.AllPairs()
	values := make([]float64, len(pairs))
	err = par.DoBlocks(len(pairs), e.par, func(_ int, blk par.Block) error {
		return e.naive.SweepValues(sp, pairs[blk.Lo:blk.Hi], values[blk.Lo:blk.Hi])
	})
	if err != nil {
		return nil, err
	}
	return &PairSweepResult{Pairs: pairs, Values: values}, nil
}

// pairwiseSweepAffine implements PairwiseSweepAffine for one epoch.
func (e *engineState) pairwiseSweepAffine(m measure.Measure) (*PairSweepResult, error) {
	sp, err := pairwiseSpec(m)
	if err != nil {
		return nil, err
	}

	// One-time cost: per-pivot base moments (the paper's O(n·k) step),
	// computed directly from the common series and the cluster center through
	// the base spec's term evaluator, so the cost per pivot is exactly the
	// raw-sample passes the base T-measure needs.  The pivot order is the
	// layout's canonical (Common, Cluster) order, so both the work
	// distribution and which pivot's error surfaces when several fail are
	// deterministic at any parallelism — and a relationship finds its pivot's
	// moment by index.  Pivots without a relationship are skipped.
	clustering := e.rel.Clustering
	layout := e.rel.Layout()
	pivotOrder := layout.Pivots()
	moments, err := par.Gather(len(pivotOrder), e.par, func(i int) (measure.Moment, error) {
		pivot := pivotOrder[i]
		if e.rel.PivotLen(i) == 0 {
			return measure.Moment{}, nil
		}
		common, err := e.data.Series(pivot.Common)
		if err != nil {
			return measure.Moment{}, err
		}
		if pivot.Cluster < 0 || pivot.Cluster >= clustering.K() {
			return measure.Moment{}, fmt.Errorf("core: pivot %v references unknown cluster", pivot)
		}
		terms, err := sp.EvalTerms(common, clustering.Centers[pivot.Cluster])
		if err != nil {
			return measure.Moment{}, err
		}
		return sp.Moment(terms), nil
	})
	if err != nil {
		return nil, err
	}

	// O(1) per pair: the engine's propagation loop over those moments, then the
	// measure's transform — the code the epoch's base columns and every affine
	// sweep run, fed the sweep's own moments.  Values land at the pairs' ranks.
	pairs := e.data.AllPairs()
	if e.rel.Len() != len(pairs) {
		for _, pair := range pairs {
			if _, ok := e.rel.Relationship(pair); !ok {
				return nil, fmt.Errorf("core: no affine relationship for pair %v", pair)
			}
		}
	}
	values := make([]float64, len(pairs))
	e.propagate(func(pi int) measure.Moment { return moments[pi] }, nil, values)
	err = par.DoBlocks(len(pairs), e.par, func(_ int, blk par.Block) error {
		_, err := e.deriveValues(sp, pairs[blk.Lo:blk.Hi], values[blk.Lo:blk.Hi], values[blk.Lo:blk.Hi])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &PairSweepResult{Pairs: pairs, Values: values}, nil
}

// locationSweepNaive implements LocationSweepNaive for one epoch.
func (e *engineState) locationSweepNaive(m measure.Measure) (*LocationSweepResult, error) {
	values, err := e.naive.Location(m, e.data.IDs())
	if err != nil {
		return nil, err
	}
	return &LocationSweepResult{Values: values}, nil
}

// locationSweepAffine implements LocationSweepAffine for one epoch: the
// centers' values are the clustering's, the O(1) propagation per series is
// redone.
func (e *engineState) locationSweepAffine(m measure.Measure) (*LocationSweepResult, error) {
	values, err := e.calibratedLocations(m, e.data.IDs())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &LocationSweepResult{Values: values}, nil
}

// SweepRMSE computes the paper's percentage RMSE (Eq. 16) between a naive
// sweep and an affine sweep of the same measure, ignoring entries that are
// undefined (NaN) in either.
func SweepRMSE(truth, approx []float64) (float64, error) {
	if len(truth) != len(approx) {
		return 0, fmt.Errorf("core: sweep length mismatch %d vs %d", len(truth), len(approx))
	}
	cleanTruth := make([]float64, 0, len(truth))
	cleanApprox := make([]float64, 0, len(approx))
	for i := range truth {
		if math.IsNaN(truth[i]) || math.IsNaN(approx[i]) {
			continue
		}
		cleanTruth = append(cleanTruth, truth[i])
		cleanApprox = append(cleanApprox, approx[i])
	}
	return measure.RMSE(cleanTruth, cleanApprox)
}
