package scape

import (
	"fmt"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// Selectivity is the index's count of an interval query's result size,
// computed without materializing a single result entry.
type Selectivity struct {
	// Rows is the number of entries an index scan of the query returns.
	Rows int
}

// EstimateSelectivity counts the result size of an interval (MET/MER) query
// without materializing it.  For T-measures the modified bounds τ' = τ/‖α_q‖
// turn the question into key-range counts, O(log) per pivot; for D-measures
// the entries of the value column (filled on first use) are counted the way a
// scan tests them.  Every count equals
// the size of the matching index scan.  The planner never needs it to choose
// a method: Explain and View.Plan report it as EstimatedRows, and delta
// repair verifies a repaired T-measure result against it.
func (idx *Index) EstimateSelectivity(q PairQuery) (Selectivity, error) {
	if q.Interval.Empty() {
		return Selectivity{}, fmt.Errorf("%w: empty interval %v", ErrBadQuery, q.Interval)
	}
	if _, ok := measure.Find(q.Measure); !ok {
		return Selectivity{}, fmt.Errorf("%w: %v", measure.ErrUnknownMeasure, q.Measure)
	}
	ps, err := idx.compilePair(q)
	if err != nil {
		return Selectivity{}, err
	}
	sel := Selectivity{}
	for i := range idx.pivots {
		pm := &idx.pivots[i].measures[ps.slot]
		switch {
		case ps.sp.Derived():
			sel.Rows += idx.countDerived(i, ps.col, ps.iv)
		case pm.alphaNorm == 0:
			// Degenerate pivot: every represented value is 0.
			if ps.iv.Contains(0) {
				sel.Rows += pm.xi.Len()
			}
		default:
			sel.Rows += pm.xi.countInterval(scaleInterval(ps.iv, pm.alphaNorm))
		}
	}
	return sel, nil
}

// countDerived counts the entries of pivot node i whose value in col lies in
// iv (nil col: the interval misses the measure's range).
func (idx *Index) countDerived(i int, col *valueColumn, iv interval.Interval) int {
	if col == nil {
		return 0
	}
	n := 0
	for _, v := range idx.nodeValues(col, i) {
		if iv.Contains(v) {
			n++
		}
	}
	return n
}
