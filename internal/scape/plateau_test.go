package scape

import (
	"slices"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// TestRangePlateauScanIncludesOvershoot checks that range scans anchored at
// the plateau values of the clamped transforms keep every plateau entry — the
// per-entry oracle's answer, pair for pair — and that the selectivity count
// of each range is the oracle's count.
func TestRangePlateauScanIncludesOvershoot(t *testing.T) {
	d, rel := testDataset(t, 9, 12, 60)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m      measure.Measure
		lo, hi float64
	}{
		{measure.EuclideanDistance, 0, 2},
		{measure.MeanSquaredDifference, 0, 1},
		{measure.AngularDistance, 0, 0.4},
		{measure.Correlation, 0.8, 1},
		{measure.Correlation, -1, -0.2},
	}
	for _, tc := range cases {
		got, err := idx.PairInterval(tc.m, interval.Between(tc.lo, tc.hi))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleInterval(perEntryOracle(idx, measure.Lookup(tc.m)), interval.Between(tc.lo, tc.hi))
		if !slices.Equal(got, want) {
			t.Fatalf("%v [%v,%v]: %d pairs, the oracle %d", tc.m, tc.lo, tc.hi, len(got), len(want))
		}
		sel, err := idx.EstimateSelectivity(PairQuery{Measure: tc.m, Interval: interval.Between(tc.lo, tc.hi)})
		if err != nil || sel.Rows != len(want) {
			t.Fatalf("%v [%v,%v]: counted %d rows (%v), the oracle %d", tc.m, tc.lo, tc.hi, sel.Rows, err, len(want))
		}
	}
}
