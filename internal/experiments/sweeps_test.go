package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"affinity/internal/baseline"
	"affinity/internal/core"
	"affinity/internal/dataset"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// sweepEngine builds an engine and its W_N baseline over a small sensor
// window.
func sweepEngine(t *testing.T, seed int64) (*core.Engine, *baseline.Naive) {
	t.Helper()
	d, err := dataset.GenerateSensor(dataset.SensorConfig{
		NumSeries: 24, NumSamples: 120, NumGroups: 4, Noise: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Build(d, core.Config{Clusters: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e, baseline.NewNaive(d)
}

func TestPairwiseSweepAccuracy(t *testing.T) {
	e, naive := sweepEngine(t, 21)
	for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct, measure.Correlation, measure.Cosine, measure.Dice} {
		truth, err := NaivePairSweep(naive, e.Data(), m)
		if err != nil {
			t.Fatalf("%v naive sweep: %v", m, err)
		}
		approx, err := AffinePairSweep(e, m)
		if err != nil {
			t.Fatalf("%v affine sweep: %v", m, err)
		}
		if len(truth) != e.Data().NumPairs() || len(approx) != len(truth) {
			t.Fatalf("%v sweep sizes %d and %d, want %d", m, len(truth), len(approx), e.Data().NumPairs())
		}
		rmse, err := sweepRMSE(truth, approx)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 3 {
			t.Fatalf("%v sweep RMSE %.3f%% too high", m, rmse)
		}
	}
	if _, err := NaivePairSweep(naive, e.Data(), measure.Mean); err == nil {
		t.Fatal("L-measure naive pair sweep should error")
	}
	if _, err := AffinePairSweep(e, measure.Mean); err == nil {
		t.Fatal("L-measure affine pair sweep should error")
	}
}

func TestPairwiseSweepMatchesEngineEstimates(t *testing.T) {
	// The sweep recomputes pivot moments from the raw pivot columns; it must
	// agree with the cached-summary path an affine MEC reads.
	e, _ := sweepEngine(t, 22)
	sweep, err := AffinePairSweep(e, measure.Covariance)
	if err != nil {
		t.Fatal(err)
	}
	ids := e.Data().IDs()
	cached, err := e.ComputePairwise(measure.Covariance, ids, core.MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range e.Data().AllPairs() {
		want := cached[pair.U][pair.V]
		if math.Abs(want-sweep[i]) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("pair %v: sweep %v vs cached %v", pair, sweep[i], want)
		}
	}
}

func TestLocationSweepAccuracy(t *testing.T) {
	e, naive := sweepEngine(t, 23)
	ids := e.Data().IDs()
	sweeps := func(m measure.Measure) (truth, approx []float64) {
		t.Helper()
		truth, err := naive.Location(m, ids)
		if err != nil {
			t.Fatal(err)
		}
		approx, err = e.ComputeLocation(m, ids, core.MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		return truth, approx
	}

	// Mean propagates exactly through the 1-D calibration.
	truthMean, approxMean := sweeps(measure.Mean)
	for i := range truthMean {
		if math.Abs(truthMean[i]-approxMean[i]) > 1e-7*(1+math.Abs(truthMean[i])) {
			t.Fatalf("mean estimate for series %d: %v vs %v", i, approxMean[i], truthMean[i])
		}
	}

	// Median and mode are approximate but must stay within a few percent.
	for _, m := range []measure.Measure{measure.Median, measure.Mode} {
		truth, approx := sweeps(m)
		rmse, err := sweepRMSE(truth, approx)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 12 {
			t.Fatalf("%v sweep RMSE %.2f%% too high", m, rmse)
		}
	}

	if _, err := e.ComputeLocation(measure.Covariance, ids, core.MethodAffine); err == nil {
		t.Fatal("T-measure location sweep should error")
	}
	if _, err := naive.Location(measure.Covariance, ids); err == nil {
		t.Fatal("T-measure naive location sweep should error")
	}
}

// TestLocationSweepMatchesCachedEstimates: the W_A location sweep of the
// trade-off experiments is the engine's affine ComputeLocation, and it
// reproduces each series' own estimate.
func TestLocationSweepMatchesCachedEstimates(t *testing.T) {
	e, _ := sweepEngine(t, 24)
	ids := e.Data().IDs()
	sweep, err := e.ComputeLocation(measure.Median, ids, core.MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		one, err := e.ComputeLocation(measure.Median, []timeseries.SeriesID{id}, core.MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(one[0]-sweep[i]) > 1e-9*(1+math.Abs(one[0])) {
			t.Fatalf("series %d: sweep %v vs single %v", id, sweep[i], one[0])
		}
	}
}

func TestSweepRMSE(t *testing.T) {
	if _, err := sweepRMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	r, err := sweepRMSE([]float64{1, math.NaN(), 3}, []float64{1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("NaN entries should be skipped, RMSE = %v", r)
	}
}

// TestAffineSweepStableErrorWithBadPivots is the regression test for the
// map-iteration-order bug: when several pivots are broken, the affine sweep
// must surface the error of the canonically-first bad pivot — the same one on
// every run — not whichever pivot happened to be visited first.
func TestAffineSweepStableErrorWithBadPivots(t *testing.T) {
	const wantPivot = "(0, ω=99)" // sorts before (1, ω=98) in (Common, Cluster) order
	e, _ := sweepEngine(t, 33)
	d, rel := e.Data(), e.Relationships()
	for run := 0; run < 5; run++ {
		// The same window over a result in which one relationship each of
		// series 0 and 1 names a cluster that does not exist.
		assignments := slices.Clone(rel.AssignmentList())
		rels := make([]*symex.Relationship, len(assignments))
		for slot := range rels {
			rels[slot] = rel.At(slot)
		}
		for common, cluster := range map[timeseries.SeriesID]int{0: 99, 1: 98} {
			slot := slices.IndexFunc(assignments, func(a symex.Assignment) bool { return a.Pivot.Common == common })
			assignments[slot].Pivot.Cluster = cluster
			moved := *rels[slot]
			moved.Pivot = assignments[slot].Pivot
			rels[slot] = &moved
		}
		layout, err := symex.NewLayout(d.NumSeries(), assignments)
		if err != nil {
			t.Fatal(err)
		}
		_, err = affinePairSweep(d, symex.NewResult(layout, rel.Clustering, rels), measure.Covariance)
		if err == nil {
			t.Fatalf("run %d: expected error from bad pivots", run)
		}
		if !strings.Contains(err.Error(), wantPivot) {
			t.Fatalf("run %d: err = %q, want the canonically-first bad pivot %s", run, err, wantPivot)
		}
	}
}
