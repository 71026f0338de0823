package scape

import (
	"fmt"
	"math"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// Selectivity is the index's estimate of an interval query's result size,
// computed from the sorted containers' rank counts without materializing a
// single result entry.
type Selectivity struct {
	// Rows is the estimated number of result entries.
	Rows int
	// Candidates is the number of sequence nodes in the band of Section 5.3
	// where the parameter bounds cannot decide membership, which the planner
	// prices as per-entry evaluations.  Zero for T- and L-measure queries.
	Candidates int
	// Exact reports whether Rows is exact with respect to the index contents
	// (true for T- and L-measures, false for the D-measure band estimate).
	Exact bool
}

// EstimateSelectivity estimates the result size of an interval (MET/MER)
// query in O(|pivots| · log) time from the rank counts of the sorted
// containers.  For T-measures and L-measures the modified bounds τ' = τ/‖α_q‖
// turn the question into exact key-range counts; for D-measures the spec's
// inverse transform and the per-pivot parameter bounds (U^min_q, U^max_q)
// yield a definitely-in count plus a candidate band, and band entries are
// estimated at half membership.  The cost-based planner uses both numbers to
// price an index scan against the naive and affine sweeps.
func (idx *Index) EstimateSelectivity(q PairQuery) (Selectivity, error) {
	if q.Interval.Empty() {
		return Selectivity{}, fmt.Errorf("%w: empty interval %v", ErrBadQuery, q.Interval)
	}
	sp, ok := measure.Find(q.Measure)
	if !ok {
		return Selectivity{}, fmt.Errorf("%w: %v", measure.ErrUnknownMeasure, q.Measure)
	}
	switch {
	case sp.Location():
		return idx.estimateSeries(q)
	case !sp.Derived():
		if !idx.pairMeasures[q.Measure] {
			return Selectivity{}, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, q.Measure)
		}
		return idx.estimateBase(q)
	default:
		if !idx.derivedSet[q.Measure] {
			return Selectivity{}, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, q.Measure)
		}
		return idx.estimateDerived(q, sp)
	}
}

// ExactRows returns the exact result cardinality of an interval query when
// the index can certify it (T- and L-measure estimates come from rank
// counts over the same modified bounds the scans use, so they equal the scan's
// result size entry for entry), with ok=false when the count is only a band
// estimate (D-measures) or the measure is not indexed.  The query cache's
// delta repair uses this as its completeness oracle: a repaired row set that
// is a subset of the true result and matches the exact count is the true
// result.
func (idx *Index) ExactRows(q PairQuery) (int, bool, error) {
	sel, err := idx.EstimateSelectivity(q)
	if err != nil {
		return 0, false, err
	}
	return sel.Rows, sel.Exact, nil
}

// estimateSeries counts L-measure query results exactly from the global
// location column.
func (idx *Index) estimateSeries(q PairQuery) (Selectivity, error) {
	col, err := idx.locationOf(q.Measure)
	if err != nil {
		return Selectivity{}, err
	}
	lo, hi := keyWindow(col.keys, q.Interval)
	return Selectivity{Exact: true, Rows: max(hi-lo, 0)}, nil
}

// estimateBase counts T-measure query results exactly, one O(log) count per
// pivot node with the same modified bounds the scans use.
func (idx *Index) estimateBase(q PairQuery) (Selectivity, error) {
	sel := Selectivity{Exact: true}
	slot := idx.baseSlot(q.Measure)
	if slot < 0 {
		return Selectivity{}, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, q.Measure)
	}
	for i := range idx.pivots {
		pm := &idx.pivots[i].measures[slot]
		if pm.alphaNorm == 0 {
			// Degenerate pivot: every represented value is 0.
			if q.Interval.Contains(0) {
				sel.Rows += pm.xi.Len()
			}
			continue
		}
		sel.Rows += pm.xi.countInterval(scaleInterval(q.Interval, pm.alphaNorm))
	}
	return sel, nil
}

// estimateDerived estimates D-measure query results with the same pruning
// geometry the scans use: per pivot node the definite region is counted
// exactly and the undecidable band contributes half its entries to Rows and
// all of them to Candidates.
func (idx *Index) estimateDerived(q PairQuery, sp *measure.Spec) (Selectivity, error) {
	pred := compileDerivedPredicate(sp, q.Interval)
	if pred.empty {
		return Selectivity{}, nil
	}
	// When an open out-of-range endpoint forces exact evaluation of every
	// entry, the result size is known only when the other side is trivially
	// satisfied too (every defined value matches).
	trivial := pred.evalAll && sideTrivial(pred.eval.Lo, sp.RangeMin, false) &&
		sideTrivial(pred.eval.Hi, sp.RangeMax, true)
	sel := Selectivity{}
	slot := idx.baseSlot(sp.Base)
	if slot < 0 {
		return Selectivity{}, fmt.Errorf("%w: base measure %v", ErrMeasureNotIndexed, sp.Base)
	}
	var bounds [][2]float64
	if !pred.evalAll {
		bounds = idx.paramBoundsOf(sp)
	}
	for i := range idx.pivots {
		db := idx.nodeBounds(i, slot, sp, bounds)
		cand := db.pm.xi.Len()
		switch {
		case pred.evalAll:
			// The scan evaluates each entry exactly (and rejects undefined
			// pairs); a trivially-true predicate makes every defined entry a
			// row.
			if trivial {
				sel.Rows += cand
			} else {
				sel.Rows += cand / 2
			}
			sel.Candidates += cand
		case !db.canPrune:
			// No usable bounds: every entry is a candidate.
			sel.Rows += cand / 2
			sel.Candidates += cand
		default:
			definite, band := db.countWindow(sp, pred.eval, idx.numSamples)
			sel.Rows += definite + band/2
			sel.Candidates += band
		}
	}
	return sel, nil
}

// sideTrivial reports whether one endpoint of the evaluation interval is
// satisfied by every value inside the declared range (hiSide flips the
// comparison direction).
func sideTrivial(b interval.Bound, extreme float64, hiSide bool) bool {
	if b.Unbounded {
		return true
	}
	if hiSide {
		return b.Value > extreme || (b.Value == extreme && !b.Open)
	}
	return b.Value < extreme || (b.Value == extreme && !b.Open)
}

// countWindow counts, for one node, the entries definitely inside the
// predicate and the undecidable band: the conservative ξ window minus the
// definite region.  The monotone-direction mirroring is applied once, to the
// interval: for decreasing transforms the value interval's high end is the
// low-T end.  A closed endpoint at the clamp extreme the transform plateaus to
// on its side is satisfied by the entire plateau — arbitrarily large |T| — so
// that side is unbounded rather than inverted.
func (db derivedBounds) countWindow(sp *measure.Spec, eval interval.Interval, numSamples int) (definite, band int) {
	from, to := eval.Lo, eval.Hi
	fromExtreme, toExtreme := sp.RangeMin, sp.RangeMax
	if sp.Decreasing {
		from, to = eval.Hi, eval.Lo
		fromExtreme, toExtreme = sp.RangeMax, sp.RangeMin
	}
	fromLo, fromHi := db.sideBounds(sp, from, fromExtreme, -1, numSamples)
	toLo, toHi := db.sideBounds(sp, to, toExtreme, +1, numSamples)
	edge := func(x float64, b interval.Bound) interval.Bound {
		if math.IsInf(x, 0) {
			// Plateau / unbounded sides place no constraint on the count.
			return interval.Unbounded()
		}
		return interval.Bound{Value: x, Open: b.Open}
	}
	window := db.pm.xi.countInterval(interval.New(edge(fromLo, from), edge(toHi, to)))
	definite = db.pm.xi.countInterval(interval.New(edge(fromHi, from), edge(toLo, to)))
	if band = window - definite; band < 0 {
		band = 0
	}
	return definite, band
}

// derivedBounds is the per-(node, spec) geometry of Section 5.3, generalized
// to both monotone directions, that the estimator counts with: value-space
// query bounds invert through the spec's InvertT into ξ-space bounds, with the
// pivot's parameter interval [U^min, U^max] supplying the conservative and
// the definite ends.
type derivedBounds struct {
	pm       *pivotMeasure
	canPrune bool
	uMin     float64
	uMax     float64
}

// nodeBounds inspects pivot node i for a derived spec whose base T-measure
// sits at slot and whose per-node parameter bounds are bounds (nil when the
// query evaluates every entry): whether they admit pruning at all (spec
// transforms that divide by the parameter need U^min > 0; an empty or
// unbounded interval disables pruning for everyone).
func (idx *Index) nodeBounds(i, slot int, sp *measure.Spec, bounds [][2]float64) derivedBounds {
	db := derivedBounds{pm: &idx.pivots[i].measures[slot]}
	if bounds == nil {
		return db
	}
	db.uMin, db.uMax = bounds[i][0], bounds[i][1]
	db.canPrune = db.pm.alphaNorm != 0 &&
		!math.IsInf(db.uMin, 1) && db.uMin <= db.uMax &&
		(!sp.ParamPositive || db.uMin > 0)
	return db
}

// xiBounds maps one value-space bound v into ξ space: the smallest and
// largest scalar projections at which the transform can cross v for any
// parameter in the node's interval.
func (db derivedBounds) xiBounds(sp *measure.Spec, v float64, numSamples int) (lo, hi float64) {
	tLo, tHi := sp.TBounds(v, db.uMin, db.uMax, numSamples)
	return tLo / db.pm.alphaNorm, tHi / db.pm.alphaNorm
}

// sideBounds maps one endpoint of the evaluation interval into ξ space.
// dir = −1 for the low-T end of the matching T interval, +1 for the high-T
// end; unbounded endpoints and closed endpoints on the clamp plateau extend
// their side without inversion.
func (db derivedBounds) sideBounds(sp *measure.Spec, b interval.Bound, extreme float64, dir int, numSamples int) (lo, hi float64) {
	if b.Unbounded || (sp.Bounded && !b.Open && b.Value == extreme) {
		v := math.Inf(dir)
		return v, v
	}
	return db.xiBounds(sp, b.Value, numSamples)
}
