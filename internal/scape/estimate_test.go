package scape

import (
	"errors"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// estimateQueries spans both interval shapes (half-bounded MET and bounded
// MER predicates) over a spread of thresholds wide enough to cover near-empty
// and near-full result sets.
func estimateQueries(m measure.Measure) []PairQuery {
	return []PairQuery{
		{Measure: m, Interval: interval.GreaterThan(0.9)},
		{Measure: m, Interval: interval.GreaterThan(0.2)},
		{Measure: m, Interval: interval.GreaterThan(-0.5)},
		{Measure: m, Interval: interval.LessThan(0.6)},
		{Measure: m, Interval: interval.LessThan(-0.9)},
		{Measure: m, Interval: interval.Between(-0.3, 0.7)},
		{Measure: m, Interval: interval.Between(0.95, 1.0)},
	}
}

// TestEstimateSelectivityExactClasses pins that T-measure estimates equal the
// actual result sizes exactly: the count and the scan are derived from the
// same modified bounds, one by measuring the index window and one by walking
// it.
func TestEstimateSelectivityExactClasses(t *testing.T) {
	d, rel := testDataset(t, 11, 18, 90)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct} {
		for _, q := range estimateQueries(m) {
			sel, err := idx.EstimateSelectivity(q)
			if err != nil {
				t.Fatalf("%v %+v: %v", m, q, err)
			}
			pairs, err := idx.PairInterval(m, q.Interval)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Rows != len(pairs) {
				t.Errorf("%v %+v: estimated %d rows, actual %d", m, q, sel.Rows, len(pairs))
			}
		}
	}
}

// TestEstimateSelectivityDerivedBounds pins that the D-measure estimate is
// the scan's count: both read the value column and test each entry the same
// way.
func TestEstimateSelectivityDerivedBounds(t *testing.T) {
	d, rel := testDataset(t, 12, 18, 90)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range SeparableDerivedMeasures() {
		for _, q := range estimateQueries(m) {
			sel, err := idx.EstimateSelectivity(q)
			if err != nil {
				t.Fatalf("%v %+v: %v", m, q, err)
			}
			pairs, err := idx.PairInterval(m, q.Interval)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Rows != len(pairs) {
				t.Errorf("%v %+v: estimated %d rows, the scan returns %d", m, q, sel.Rows, len(pairs))
			}
		}
	}
}

// TestEstimateSelectivityErrors pins the estimator's error behaviour: the
// same typed errors as the query paths.
func TestEstimateSelectivityErrors(t *testing.T) {
	d, rel := testDataset(t, 13, 10, 60)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Jaccard, Interval: interval.GreaterThan(0.5)}); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("jaccard estimate err = %v, want ErrMeasureNotIndexed", err)
	}
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Correlation, Interval: interval.Between(1, -1)}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty interval err = %v, want ErrBadQuery", err)
	}
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Measure(99), Interval: interval.GreaterThan(0)}); err == nil {
		t.Fatal("unknown measure should error")
	}
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Mean, Interval: interval.AtLeast(0)}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("L-measure estimate err = %v, want ErrBadQuery", err)
	}
}
