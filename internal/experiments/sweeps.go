package experiments

import (
	"fmt"
	"math"

	"affinity/internal/baseline"
	"affinity/internal/core"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// This file holds the paper's whole-dataset pairwise sweeps: one T- or
// D-measure over every sequence pair with the naive method (W_N) and with the
// affine method (W_A) — the work Figs. 9–11 time and Table 4 and Figs. 15–16
// derive their thresholds from.  Values are in d.AllPairs() order, NaN where
// the measure is undefined.  The location sweeps need no code of their own:
// W_N is baseline.Naive.Location over every series, W_A the engine's
// ComputeLocation with core.MethodAffine.

// NaivePairSweep computes m for every pair of d from the raw series (W_N) on
// w's blocked kernels; w must be d's baseline.
func NaivePairSweep(w *baseline.Naive, d *timeseries.DataMatrix, m measure.Measure) ([]float64, error) {
	sp, err := pairwiseSpec(m)
	if err != nil {
		return nil, err
	}
	pairs := d.AllPairs()
	values := make([]float64, len(pairs))
	if err := w.SweepValues(sp, pairs, values); err != nil {
		return nil, err
	}
	return values, nil
}

// AffinePairSweep computes m for every pair of the engine's window with the
// W_A method over its current relationships.
func AffinePairSweep(e *core.Engine, m measure.Measure) ([]float64, error) {
	return affinePairSweep(e.Data(), e.Relationships(), m)
}

// affinePairSweep is W_A over a relationship result that covers every pair of
// d.  It re-derives the per-pivot base moments from the raw pivot columns
// instead of reading the engine's cached pivot summaries: the paper's W_A
// timing includes that one-time O(n·k) cost, and excluding it would overstate
// the speedup.  What follows is the O(1) propagation per pair (Eqs. 5–7) and
// the measure's transform, on the bits an affine query's base column holds.
// Pivots are visited in the layout's canonical (Common, Cluster) order, so
// which pivot's error surfaces when several are broken is deterministic.
func affinePairSweep(d *timeseries.DataMatrix, rel *symex.Result, m measure.Measure) ([]float64, error) {
	sp, err := pairwiseSpec(m)
	if err != nil {
		return nil, err
	}
	pairs := d.AllPairs()
	if rel.Len() != len(pairs) {
		for _, pair := range pairs {
			if _, ok := rel.Relationship(pair); !ok {
				return nil, fmt.Errorf("experiments: no affine relationship for pair %v", pair)
			}
		}
	}
	clustering := rel.Clustering
	layout := rel.Layout()
	assignments := layout.Assignments()
	values := make([]float64, len(pairs))
	for pi, pivot := range layout.Pivots() {
		if rel.PivotLen(pi) == 0 {
			continue
		}
		common, err := d.Series(pivot.Common)
		if err != nil {
			return nil, err
		}
		if pivot.Cluster < 0 || pivot.Cluster >= clustering.K() {
			return nil, fmt.Errorf("experiments: pivot %v references unknown cluster", pivot)
		}
		terms, err := sp.EvalTerms(common, clustering.Centers[pivot.Cluster])
		if err != nil {
			return nil, err
		}
		mom := sp.Moment(terms)
		for _, slot := range layout.PivotSlots(pi) {
			values[timeseries.PairRank(d.NumSeries(), assignments[slot].Pair)] = rel.At(int(slot)).Transform.PropagateMoment(mom)
		}
	}
	if !sp.Derived() {
		return values, nil
	}
	return values, d.Moments().Derive(sp, pairs, values, d.NumSamples(), values, new(timeseries.DeriveScratch))
}

// pairwiseSpec resolves a pairwise measure to its spec.
func pairwiseSpec(m measure.Measure) (*measure.Spec, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("experiments: %v is not a pairwise measure: %w", m, measure.ErrUnknownMeasure)
	}
	return sp, nil
}

// sweepRMSE computes the paper's percentage RMSE (Eq. 16) between a naive
// sweep and an affine sweep of the same measure, ignoring entries that are
// undefined (NaN) in either.
func sweepRMSE(truth, approx []float64) (float64, error) {
	if len(truth) != len(approx) {
		return 0, fmt.Errorf("experiments: sweep length mismatch %d vs %d", len(truth), len(approx))
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
