package scape

import (
	"slices"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// TestIntervalWindowPlateauEnds pins the clamp-plateau geometry of bounded
// interval estimates: a closed endpoint sitting exactly at the value a
// clamped transform plateaus to (distance 0, correlation ±1) is satisfied by
// arbitrarily large |T|, so the matching end of the ξ window must be
// unbounded — otherwise an index built from stale (drift-bounded) transforms
// whose propagated T overshoots the node's parameter interval would have its
// plateau entries left out of the count.  Two one-entry nodes probe the far
// ends, ξ = ∓10⁶.
func TestIntervalWindowPlateauEnds(t *testing.T) {
	const m = 16
	counted := func(sp *measure.Spec, iv interval.Interval, xi float64) bool {
		db := derivedBounds{pm: &pivotMeasure{alphaNorm: 2, xi: xiArray{keys: []float64{xi}}}, canPrune: true, uMin: 4, uMax: 9}
		definite, band := db.countWindow(sp, iv, m)
		return definite+band > 0
	}
	expect := func(sp *measure.Spec, iv interval.Interval, low, high bool) {
		t.Helper()
		if gotLow, gotHigh := counted(sp, iv, -1e6), counted(sp, iv, 1e6); gotLow != low || gotHigh != high {
			t.Fatalf("%v %v: far-low entry counted %v, far-high %v; want %v, %v", sp.ID, iv, gotLow, gotHigh, low, high)
		}
	}

	// Euclidean [0, x]: the lo bound is the decreasing transform's high-T
	// plateau, so the high-T end is unbounded while the low-T end stays the
	// finite inversion of x.
	eu := measure.Lookup(measure.EuclideanDistance)
	expect(eu, interval.Between(0, 1.5), false, true)
	// Interior range: both ends finite.
	expect(eu, interval.Between(0.25, 1.5), false, false)

	// Correlation [x, 1]: the hi bound is the increasing transform's high-T
	// plateau (clamp at 1); [-1, x]: the lo bound is the low-T plateau.
	corr := measure.Lookup(measure.Correlation)
	expect(corr, interval.Between(0.5, 1), false, true)
	expect(corr, interval.Between(-1, 0.5), true, false)
	// An OPEN endpoint at the plateau value excludes the plateau itself, so
	// the window stays finite.
	expect(corr, interval.New(interval.Open(-1), interval.Closed(0.5)), false, false)

	// Unbounded ratio transforms (cosine is not declared Bounded) keep finite
	// inversions at any probe.
	expect(measure.Lookup(measure.Cosine), interval.Between(-1, 1), false, false)
}

// TestRangePlateauScanIncludesOvershoot checks that range scans anchored at
// the plateau values of the clamped transforms keep every plateau entry: the
// per-entry oracle's answer, pair for pair.
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
	}
}
