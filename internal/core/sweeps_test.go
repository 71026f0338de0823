package core

import (
	"math"
	"testing"

	"affinity/internal/measure"
)

func TestPairwiseSweepAccuracy(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 21})
	for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct, measure.Correlation, measure.Cosine, measure.Dice} {
		truth, err := e.PairwiseSweepNaive(m)
		if err != nil {
			t.Fatalf("%v naive sweep: %v", m, err)
		}
		approx, err := e.PairwiseSweepAffine(m)
		if err != nil {
			t.Fatalf("%v affine sweep: %v", m, err)
		}
		if len(truth.Values) != len(approx.Values) || len(truth.Pairs) != len(approx.Pairs) {
			t.Fatalf("%v sweep sizes differ", m)
		}
		for i := range truth.Pairs {
			if truth.Pairs[i] != approx.Pairs[i] {
				t.Fatalf("%v sweep pair order differs at %d", m, i)
			}
		}
		rmse, err := SweepRMSE(truth.Values, approx.Values)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 3 {
			t.Fatalf("%v sweep RMSE %.3f%% too high", m, rmse)
		}
	}
	if _, err := e.PairwiseSweepNaive(measure.Mean); err == nil {
		t.Fatal("L-measure naive pair sweep should error")
	}
	if _, err := e.PairwiseSweepAffine(measure.Mean); err == nil {
		t.Fatal("L-measure affine pair sweep should error")
	}
}

func TestPairwiseSweepMatchesEngineEstimates(t *testing.T) {
	// The sweep path recomputes pivot summaries from scratch; it must agree
	// with the cached-summary path a pairwise MEC reads.
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 22})
	sweep, err := e.PairwiseSweepAffine(measure.Covariance)
	if err != nil {
		t.Fatal(err)
	}
	st := e.escapedState()
	for i, pair := range sweep.Pairs {
		cached, err := st.PairValue(measure.Covariance, pair, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cached-sweep.Values[i]) > 1e-9*(1+math.Abs(cached)) {
			t.Fatalf("pair %v: sweep %v vs cached %v", pair, sweep.Values[i], cached)
		}
	}
}

func TestLocationSweepAccuracy(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 23})

	// Mean propagates exactly through the 1-D calibration.
	truthMean, err := e.LocationSweepNaive(measure.Mean)
	if err != nil {
		t.Fatal(err)
	}
	approxMean, err := e.LocationSweepAffine(measure.Mean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truthMean.Values {
		if math.Abs(truthMean.Values[i]-approxMean.Values[i]) > 1e-7*(1+math.Abs(truthMean.Values[i])) {
			t.Fatalf("mean estimate for series %d: %v vs %v", i, approxMean.Values[i], truthMean.Values[i])
		}
	}

	// Median and mode are approximate but must stay within a few percent.
	for _, m := range []measure.Measure{measure.Median, measure.Mode} {
		truth, err := e.LocationSweepNaive(m)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.LocationSweepAffine(m)
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := SweepRMSE(truth.Values, approx.Values)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 12 {
			t.Fatalf("%v sweep RMSE %.2f%% too high", m, rmse)
		}
	}

	if _, err := e.LocationSweepAffine(measure.Covariance); err == nil {
		t.Fatal("T-measure location sweep should error")
	}
	if _, err := e.LocationSweepNaive(measure.Covariance); err == nil {
		t.Fatal("T-measure naive location sweep should error")
	}
}

func TestLocationSweepMatchesCachedEstimates(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 24})
	sweep, err := e.LocationSweepAffine(measure.Median)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e.ComputeLocation(measure.Median, e.Data().IDs(), MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cached {
		if math.Abs(cached[i]-sweep.Values[i]) > 1e-9*(1+math.Abs(cached[i])) {
			t.Fatalf("series %d: sweep %v vs cached %v", i, sweep.Values[i], cached[i])
		}
	}
}

func TestSweepRMSE(t *testing.T) {
	if _, err := SweepRMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	r, err := SweepRMSE([]float64{1, math.NaN(), 3}, []float64{1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("NaN entries should be skipped, RMSE = %v", r)
	}
}
