package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// fitCovFixture is makeStreamFixture's sensor window and ticks with series 0
// held constant, so every correlation involving it is NaN, and series 2 a copy
// of series 1, so values tie.
func fitCovFixture(t testing.TB, n, window, streamLen int) *streamFixture {
	t.Helper()
	fx := makeStreamFixture(t, n, window, streamLen, 61)
	rows := make([][]float64, n)
	for v := range rows {
		s, err := fx.window.Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		rows[v] = slices.Clone(s)
	}
	for i := range rows[0] {
		rows[0][i] = 3
	}
	rows[2] = slices.Clone(rows[1])
	d, err := timeseries.NewDataMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range fx.ticks {
		tick[0], tick[2] = 3, tick[1]
	}
	return &streamFixture{window: d, ticks: fx.ticks}
}

// naiveBattery is the stage battery (stageSpecs) on correlation and
// covariance, the measures the naive covariance column serves.
func naiveBattery(o *scalarOracle) []plan.QuerySpec {
	var specs []plan.QuerySpec
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance} {
		specs = append(specs, stageSpecs(m, o.values[m])...)
	}
	return specs
}

// requireNaiveOracle holds the naive method at e's current epoch to the
// scalar W_N oracle, Float64bits equal: a batch mixing the battery with
// dot-product base items (cosine, Euclidean distance, the dot product), every
// battery query on its own through Explain, MEC on both bases over series
// that include the constant one, the tied pair and a repeated id, and the
// base values of every pair through BaseValues.  fit says whether the epoch's full fit left the naive
// covariance column, and Explain must report the source that served each
// executed query: the column with nothing sketched or refined, or the
// prescreen over the whole universe.
func requireNaiveOracle(t *testing.T, label string, e *Engine, fit bool) {
	t.Helper()
	st := e.escapedState()
	if got := st.rel.PairCov() != nil && st.fitCovColumn() != nil; got != fit {
		t.Fatalf("%s: epoch has a naive covariance column: %v, want %v", label, got, fit)
	}
	oracle := newScalarOracle(t, e)
	specs := naiveBattery(oracle)

	batch := slices.Clone(specs)
	for _, m := range []measure.Measure{measure.Cosine, measure.EuclideanDistance, measure.DotProduct} {
		finite := sketchQuantiles(oracle.values[m])
		batch = append(batch, plan.Interval(m, interval.Between(quantile(finite, 0.3), quantile(finite, 0.8))), plan.TopK(m, 5, true))
	}
	got, err := runSpecs(e, batch, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range batch {
		mustEqualResults(t, fmt.Sprintf("%s batch %v", label, spec), got[i], oracle.answer(spec, nil))
	}

	executed := 0
	for _, spec := range specs {
		res, p, err := e.Explain(spec, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("%s %v", label, spec), res, oracle.answer(spec, nil))
		if p.CacheTier != "" {
			continue // served by the cache: no sweep ran
		}
		executed++
		switch {
		case fit && (p.BaseValues != BaseFit || p.SketchedPairs != 0 || p.SketchRefinedPairs != 0):
			t.Fatalf("%s %v: base values %q, %d sketched, %d refined; want the fit column and no prescreen", label, spec, p.BaseValues, p.SketchedPairs, p.SketchRefinedPairs)
		case !fit && (p.BaseValues != "" || p.SketchedPairs != st.numUniversePairs()):
			t.Fatalf("%s %v: base values %q, %d sketched; want the prescreen over all %d pairs", label, spec, p.BaseValues, p.SketchedPairs, st.numUniversePairs())
		}
	}
	if executed == 0 && e.escapedState().cache == nil {
		t.Fatalf("%s: no query executed", label)
	}

	// MEC cell by cell against the scalar oracle, NaN for NaN: the fit
	// column's route for correlation and covariance where the epoch has it,
	// the exact evaluator over the triangle otherwise and for the dot-product
	// base always.  A series with itself — on the diagonal or off it, where
	// an id repeats — is the spec's SelfValue.
	ids := []timeseries.SeriesID{5, 0, 2, 1, 7, 3, 2}
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.DotProduct, measure.Cosine} {
		gotMat, err := e.ComputePairwise(m, ids, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range ids {
			for j, v := range ids {
				var want float64
				if u == v {
					want, err = measure.OrNaN(st.SelfValue(m, u))
				} else {
					want, err = measure.OrNaN(evalPair(st, m, timeseries.Pair{U: u, V: v}))
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := gotMat[i][j]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s MEC %v (%d, %d): %v, scalar %v", label, m, u, v, got, want)
				}
			}
		}
	}
	// The backend door MEC, repair and the cache read base values through:
	// the fit column where the epoch has it, the kernels otherwise.
	pairs := st.data.AllPairs()
	base := make([]float64, len(pairs))
	for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct} {
		if err := st.BaseValues(m, pairs, MethodNaive, base); err != nil {
			t.Fatal(err)
		}
		for i, pair := range pairs {
			want, err := evalPair(st, m, pair)
			if err != nil || math.Float64bits(base[i]) != math.Float64bits(want) {
				t.Fatalf("%s BaseValues %v %v: %v, scalar %v (%v)", label, m, pair, base[i], want, err)
			}
		}
	}
}

// TestNaiveCovarianceColumnAbsent: where the epoch's fit was not full — a
// partial refit under DriftBound, an engine restored from a snapshot — there
// is no naive covariance column, the prescreen serves the same queries, and
// the answers are the scalar oracle's all the same.  Sweeping the full-fit
// epoch first makes sure nothing of its column survives the Advance.
func TestNaiveCovarianceColumnAbsent(t *testing.T) {
	for _, p := range []int{1, 8} {
		for _, sketched := range []bool{false, true} {
			label := fmt.Sprintf("P=%d sketch=%v", p, sketched)
			fx := fitCovFixture(t, 18, 70, 4)
			cfg := Config{Clusters: 3, Seed: 5, Parallelism: p, Stream: StreamConfig{DriftBound: 0.5}}
			if sketched {
				cfg.Sketch = sketch.Options{Enabled: true, Coefficients: 8}
			}
			e, err := Build(fx.window, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireNaiveOracle(t, label+" epoch 0", e, true)
			for epoch := 1; epoch <= 2; epoch++ {
				advanceBoth(t, fx.ticks[2*epoch-2:2*epoch], e)
				if e.Relationships().PairCov() != nil {
					t.Fatalf("%s epoch %d: a partial refit kept pair covariances", label, epoch)
				}
				requireNaiveOracle(t, fmt.Sprintf("%s epoch %d", label, epoch), e, false)
			}

			var snap bytes.Buffer
			if err := e.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := BuildFromSnapshot(e.Data(), &snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireNaiveOracle(t, label+" restored", restored, false)
		}
	}
}
