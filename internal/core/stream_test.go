package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// streamFixture generates one long sensor dataset and splits it into an
// initial window and a stream of future ticks drawn from the same latent
// process.
type streamFixture struct {
	window *timeseries.DataMatrix
	ticks  [][]float64 // ticks[t][v]
}

func makeStreamFixture(t testing.TB, n, window, streamLen int, seed int64) *streamFixture {
	t.Helper()
	full, err := dataset.GenerateSensor(dataset.SensorConfig{
		NumSeries:  n,
		NumSamples: window + streamLen,
		NumGroups:  4,
		Noise:      0.02,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	init, err := full.Window(0, window)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make([][]float64, streamLen)
	for s := 0; s < streamLen; s++ {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			series, err := full.Series(timeseries.SeriesID(v))
			if err != nil {
				t.Fatal(err)
			}
			tick[v] = series[window+s]
		}
		ticks[s] = tick
	}
	return &streamFixture{window: init, ticks: ticks}
}

func appendTicks(t testing.TB, e *Engine, ticks [][]float64) {
	t.Helper()
	for _, tick := range ticks {
		if err := e.Append(tick); err != nil {
			t.Fatal(err)
		}
	}
}

func pairSet(pairs []timeseries.Pair) map[timeseries.Pair]bool {
	out := make(map[timeseries.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

// coldParityAnswers renders every answer the streaming equivalence test
// compares, labelled, one string each: MEC by naive and affine, and interval
// (above the cold build's median naive value) and top-k by naive, affine and
// index, for pairwise and location measures alike.  %v prints the shortest
// decimal that round-trips a float64, so equal strings are equal bits.
func coldParityAnswers(t *testing.T, e *Engine, ids []timeseries.SeriesID, medians map[measure.Measure]float64) map[string]string {
	t.Helper()
	render := func(res any, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v", res)
	}
	out := make(map[string]string)
	for m, med := range medians {
		for _, method := range []Method{MethodNaive, MethodAffine} {
			key := fmt.Sprintf("%v/%v/", m, method)
			if !m.Pairwise() {
				out[key+"mec"] = render(e.ComputeLocation(m, ids, method))
			} else {
				out[key+"mec"] = render(e.ComputePairwise(m, ids, method))
			}
		}
		for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
			key := fmt.Sprintf("%v/%v/", m, method)
			out[key+"interval"] = render(e.Interval(m, interval.GreaterThan(med), method))
			out[key+"topk"] = render(e.TopK(m, 5, true, method))
		}
	}
	return out
}

// TestAdvanceMatchesColdRebuildFrozenClustering is the streaming equivalence
// test: across three window slides, an Advance
// with the refit-all default (DriftBound 0) answers every query bit for bit
// like a cold Build on the slid window with the same frozen clustering — MEC,
// interval, top-k (values included) and location, by the naive, affine and
// index methods, at any parallelism.
func TestAdvanceMatchesColdRebuildFrozenClustering(t *testing.T) {
	const n, window, slide, rounds = 18, 90, 12, 3
	fx := makeStreamFixture(t, n, window, slide*rounds, 3)
	levels := []int{1, 2, 8}
	streaming := make([]*Engine, len(levels))
	for i, p := range levels {
		e, err := Build(fx.window, Config{Clusters: 4, Seed: 7, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		streaming[i] = e
	}
	frozen := streaming[0].Relationships().Clustering
	ids := fx.window.IDs()
	measures := []measure.Measure{measure.Correlation, measure.Covariance, measure.DotProduct, measure.Cosine,
		measure.EuclideanDistance, measure.Mean, measure.Median, measure.Mode}

	current := fx.window
	for round := 0; round < rounds; round++ {
		ticks := fx.ticks[round*slide : (round+1)*slide]
		for i, e := range streaming {
			appendTicks(t, e, ticks)
			info, err := e.Advance()
			if err != nil {
				t.Fatalf("round %d P=%d: Advance: %v", round, levels[i], err)
			}
			if info.Epoch != round+1 || info.Slide != slide || info.RefitRelationships != n*(n-1)/2 {
				t.Fatalf("round %d P=%d: refit-all should refit every pair, got %+v", round, levels[i], info)
			}
		}

		// Cold rebuild on the manually slid window with the same clustering.
		batch := make([][]float64, n)
		for v := range batch {
			col := make([]float64, slide)
			for s, tick := range ticks {
				col[s] = tick[v]
			}
			batch[v] = col
		}
		slid, err := current.SlideCopy(batch)
		if err != nil {
			t.Fatal(err)
		}
		current = slid
		cold, err := Build(slid, Config{Clusters: 4, Clustering: frozen})
		if err != nil {
			t.Fatalf("round %d: cold rebuild: %v", round, err)
		}

		// Window contents: the streaming window must equal the manually slid
		// window exactly.
		for i, e := range streaming {
			if e.Data().NumSamples() != window || e.Data().StartIndex() != (round+1)*slide {
				t.Fatalf("round %d P=%d: window shape m=%d start=%d",
					round, levels[i], e.Data().NumSamples(), e.Data().StartIndex())
			}
			for v := 0; v < n; v++ {
				sw, _ := e.Data().Series(timeseries.SeriesID(v))
				cw, _ := slid.Series(timeseries.SeriesID(v))
				if !slices.Equal(sw, cw) {
					t.Fatalf("round %d P=%d: series %d differs from the slid window", round, levels[i], v)
				}
			}
		}

		medians := make(map[measure.Measure]float64, len(measures))
		for _, m := range measures {
			var vals []float64
			if !m.Pairwise() {
				if vals, err = cold.ComputeLocation(m, ids, MethodNaive); err != nil {
					t.Fatal(err)
				}
			} else {
				sweep, err := cold.PairwiseSweepNaive(m)
				if err != nil {
					t.Fatal(err)
				}
				vals = slices.Clone(sweep.Values)
			}
			slices.Sort(vals)
			medians[m] = vals[len(vals)/2]
		}
		// The pivot summaries are the terms the index was built from
		// (symex.Result.PivotTerms, which scape calls too) and a cold build's.
		terms, err := cold.escapedState().rel.PivotTerms(slid, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range streaming {
			for _, sums := range [][]measure.PivotTerms{e.escapedState().summaries, cold.escapedState().summaries} {
				if fmt.Sprintf("%v", sums) != fmt.Sprintf("%v", terms) {
					t.Fatalf("round %d P=%d: pivot summaries differ from the index's pivot terms", round, levels[i])
				}
			}
		}
		want := coldParityAnswers(t, cold, ids, medians)
		for i, e := range streaming {
			for key, got := range coldParityAnswers(t, e, ids, medians) {
				if got != want[key] {
					t.Fatalf("round %d P=%d %s: streamed\n%.400s\ncold\n%.400s", round, levels[i], key, got, want[key])
				}
			}
		}

		// Internal consistency: the index answers select the same pair sets as
		// the affine path of the same engine.
		for _, tau := range []float64{0.9, 0.5} {
			sres, err := streaming[0].Interval(measure.Correlation, interval.GreaterThan(tau), MethodIndex)
			if err != nil {
				t.Fatal(err)
			}
			ares, err := streaming[0].Interval(measure.Correlation, interval.GreaterThan(tau), MethodAffine)
			if err != nil {
				t.Fatal(err)
			}
			ss, as := pairSet(sres.Pairs), pairSet(ares.Pairs)
			if len(as) != len(ss) {
				t.Fatalf("round %d tau %v: index %d pairs vs affine %d", round, tau, len(ss), len(as))
			}
			for p := range as {
				if !ss[p] {
					t.Fatalf("round %d tau %v: pair %v only in affine result", round, tau, p)
				}
			}
		}
	}
}

// TestAdvanceApproximatesFreshRebuild checks the paper-tolerance half of the
// acceptance criteria: a streaming engine and a completely fresh rebuild
// (new AFCLST clustering) on the same slid window both stay within the
// paper's approximation tolerance of the naive ground truth.
func TestAdvanceApproximatesFreshRebuild(t *testing.T) {
	const n, window, slide, rounds = 18, 90, 15, 3
	fx := makeStreamFixture(t, n, window, slide*rounds, 11)
	streaming, err := Build(fx.window, Config{Clusters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		appendTicks(t, streaming, fx.ticks[round*slide:(round+1)*slide])
		if _, err := streaming.Advance(); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := Build(streaming.Data(), Config{Clusters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	truth, err := streaming.PairwiseSweepNaive(measure.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"streaming": streaming, "fresh": fresh} {
		approx, err := e.PairwiseSweepAffine(measure.Correlation)
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := SweepRMSE(truth.Values, approx.Values)
		if err != nil {
			t.Fatal(err)
		}
		// The paper reports low single-digit percentage RMSE for W_A.
		if rmse > 5 {
			t.Fatalf("%s correlation RMSE = %.3f%%", name, rmse)
		}
	}
}

// TestSelectiveRefitDrift exercises the DriftBound path: on a quiet stream
// most relationships are carried over, and the approximation stays within
// tolerance of the naive ground truth.
func TestSelectiveRefitDrift(t *testing.T) {
	const n, window, slide, rounds = 18, 90, 6, 4
	fx := makeStreamFixture(t, n, window, slide*rounds, 19)
	e, err := Build(fx.window, Config{
		Clusters: 4, Seed: 9,
		Stream: StreamConfig{DriftBound: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	totalPairs := n * (n - 1) / 2
	reusedAtLeastOnce := false
	for round := 0; round < rounds; round++ {
		appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
		info, err := e.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if info.RefitRelationships+info.ReusedRelationships != totalPairs {
			t.Fatalf("round %d: refit %d + reused %d != %d",
				round, info.RefitRelationships, info.ReusedRelationships, totalPairs)
		}
		if info.ReusedRelationships > 0 {
			reusedAtLeastOnce = true
		}
	}
	if !reusedAtLeastOnce {
		t.Fatal("drift bound never reused a relationship on a quiet stream")
	}

	truth, err := e.PairwiseSweepNaive(measure.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.PairwiseSweepAffine(measure.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := SweepRMSE(truth.Values, approx.Values)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 5 {
		t.Fatalf("selective-refit correlation RMSE = %.3f%%", rmse)
	}
}

// TestDriftScoringIsScaleFree: drift is a relative discrepancy, so a stream
// scaled by 2^-200 or 2^200 — every window variance far below or above any
// absolute floor — refits exactly the relationships the unscaled stream does,
// epoch by epoch, stale set by stale set.
func TestDriftScoringIsScaleFree(t *testing.T) {
	const n, window, slide, rounds = 20, 90, 8, 4
	fx := makeStreamFixture(t, n, window, slide*rounds, 7)
	history := func(exp int) []string {
		series := make([][]float64, n)
		for v := range series {
			x, err := fx.window.SeriesCopy(timeseries.SeriesID(v))
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				x[i] = math.Ldexp(x[i], exp)
			}
			series[v] = x
		}
		d, err := timeseries.NewDataMatrix(series)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Build(d, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.05}})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for r := 0; r < rounds; r++ {
			for _, tick := range fx.ticks[r*slide : (r+1)*slide] {
				scaled := make([]float64, n)
				for v, x := range tick {
					scaled[v] = math.Ldexp(x, exp)
				}
				if err := e.Append(scaled); err != nil {
					t.Fatal(err)
				}
			}
			info, err := e.Advance()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(info.RefitRelationships, SortedStalePairs(info.Stale)))
		}
		return out
	}
	want := history(0)
	if want[0] == fmt.Sprint(0, []timeseries.Pair{}) {
		t.Fatal("the unscaled stream refits nothing: the test cannot tell scales apart")
	}
	for _, exp := range []int{-200, 200} {
		if got := history(exp); !slices.Equal(got, want) {
			t.Fatalf("scale 2^%d: refits %.200v, unscaled %.200v", exp, got, want)
		}
	}
}

// TestAdvanceNoOpAndAppendErrors covers the trivial streaming edges.
func TestAdvanceNoOpAndAppendErrors(t *testing.T) {
	const n, window = 12, 60
	fx := makeStreamFixture(t, n, window, 4, 29)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slide != 0 || info.Epoch != 0 {
		t.Fatalf("no-op advance info = %+v", info)
	}
	if err := e.Append([]float64{1, 2}); err == nil {
		t.Fatal("short tick should be rejected")
	}
	bad := make([]float64, n)
	bad[3] = math.NaN()
	if err := e.Append(bad); err == nil {
		t.Fatal("NaN tick should be rejected")
	}
	if e.PendingSamples() != 0 {
		t.Fatalf("rejected ticks must not buffer, pending = %d", e.PendingSamples())
	}
}

// TestAdvanceWholeWindowReplacement slides by more than the window length in
// one Advance: every old sample is evicted and nothing of the old window is
// carried into the new one's statistics.
func TestAdvanceWholeWindowReplacement(t *testing.T) {
	const n, window = 12, 40
	fx := makeStreamFixture(t, n, window, window+10, 31)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendTicks(t, e, fx.ticks)
	info, err := e.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slide != window+10 {
		t.Fatalf("slide = %d", info.Slide)
	}
	if e.Data().NumSamples() != window || e.Data().StartIndex() != window+10 {
		t.Fatalf("window m=%d start=%d", e.Data().NumSamples(), e.Data().StartIndex())
	}
	// Naive vs affine still coherent on the fully replaced window.
	truth, err := e.PairwiseSweepNaive(measure.Covariance)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.PairwiseSweepAffine(measure.Covariance)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := SweepRMSE(truth.Values, approx.Values)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 5 {
		t.Fatalf("post-replacement covariance RMSE = %.3f%%", rmse)
	}
}

// TestSeriesStatsStayFreshAcrossEpochs pins the per-series statistics after
// several slides to a from-scratch recomputation on the slid window, bit for
// bit: they are that window's own two-pass reduction, never slid.
func TestSeriesStatsStayFreshAcrossEpochs(t *testing.T) {
	const n, window, slide, rounds = 12, 60, 7, 5
	fx := makeStreamFixture(t, n, window, slide*rounds, 37)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.escapedState()
	for v := 0; v < n; v++ {
		s, err := e.Data().Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		got := st.seriesMoments.Stat(timeseries.SeriesID(v))
		wantVar, _ := measure.VarianceOf(s)
		if math.Float64bits(got.Variance) != math.Float64bits(wantVar) {
			t.Fatalf("series %d variance %v vs %v", v, got.Variance, wantVar)
		}
		wantSq, _ := measure.DotProductOf(s, s)
		if math.Float64bits(got.SqNorm) != math.Float64bits(wantSq) {
			t.Fatalf("series %d sqnorm %v vs %v", v, got.SqNorm, wantSq)
		}
	}
}
