package core

import (
	"math"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/stats"
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

// maxAbsDiffMatrix returns the max |a-b| over two same-shape matrices,
// treating paired NaNs as equal.
func maxAbsDiffMatrix(t testing.TB, a, b [][]float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("matrix size %d vs %d", len(a), len(b))
	}
	var worst float64
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d size %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.IsNaN(a[i][j]) && math.IsNaN(b[i][j]) {
				continue
			}
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func pairSet(pairs []timeseries.Pair) map[timeseries.Pair]bool {
	out := make(map[timeseries.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

// TestAdvanceMatchesColdRebuildFrozenClustering is the streaming equivalence
// test of the acceptance criteria: across three window slides, an Advance
// with the refit-all default must produce query results identical (to
// floating-point noise) to a cold Build on the slid window with the same
// frozen clustering — for the naive, affine and index methods.
func TestAdvanceMatchesColdRebuildFrozenClustering(t *testing.T) {
	const n, window, slide, rounds = 18, 90, 12, 3
	fx := makeStreamFixture(t, n, window, slide*rounds, 3)
	cfg := Config{Clusters: 4, Seed: 7}
	streaming, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frozen := streaming.Relationships().Clustering
	ids := fx.window.IDs()

	current := fx.window
	for round := 0; round < rounds; round++ {
		ticks := fx.ticks[round*slide : (round+1)*slide]
		appendTicks(t, streaming, ticks)
		info, err := streaming.Advance()
		if err != nil {
			t.Fatalf("round %d: Advance: %v", round, err)
		}
		if info.Epoch != round+1 || info.Slide != slide {
			t.Fatalf("round %d: info = %+v", round, info)
		}
		if info.RefitRelationships != n*(n-1)/2 {
			t.Fatalf("round %d: refit-all should refit every pair, got %+v", round, info)
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
		if streaming.Data().NumSamples() != window || streaming.Data().StartIndex() != (round+1)*slide {
			t.Fatalf("round %d: window shape m=%d start=%d",
				round, streaming.Data().NumSamples(), streaming.Data().StartIndex())
		}
		for v := 0; v < n; v++ {
			sw, _ := streaming.Data().Series(timeseries.SeriesID(v))
			cw, _ := slid.Series(timeseries.SeriesID(v))
			for i := range sw {
				if sw[i] != cw[i] {
					t.Fatalf("round %d: series %d sample %d: %v vs %v", round, v, i, sw[i], cw[i])
				}
			}
		}

		// Naive results must be bit-identical (same raw window).
		for _, m := range []stats.Measure{stats.Correlation, stats.Covariance} {
			sn, err := streaming.ComputePairwise(m, ids, MethodNaive)
			if err != nil {
				t.Fatal(err)
			}
			cn, err := cold.ComputePairwise(m, ids, MethodNaive)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiffMatrix(t, sn, cn); d != 0 {
				t.Fatalf("round %d: naive %v differs by %v", round, m, d)
			}
		}

		// Affine results must agree to floating-point noise: identical
		// relationships were fitted on identical data.
		for _, m := range []stats.Measure{stats.Correlation, stats.Covariance, stats.DotProduct, stats.Cosine} {
			sa, err := streaming.ComputePairwise(m, ids, MethodAffine)
			if err != nil {
				t.Fatal(err)
			}
			ca, err := cold.ComputePairwise(m, ids, MethodAffine)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiffMatrix(t, sa, ca); d > 1e-9 {
				t.Fatalf("round %d: affine %v differs by %v", round, m, d)
			}
		}
		la, err := streaming.ComputeLocation(stats.Mean, ids, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := cold.ComputeLocation(stats.Mean, ids, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		for i := range la {
			if math.Abs(la[i]-lc[i]) > 1e-9 {
				t.Fatalf("round %d: affine mean[%d] %v vs %v", round, i, la[i], lc[i])
			}
		}

		// Index threshold results must select the same pair sets.
		for _, tau := range []float64{0.9, 0.5} {
			sres, err := streaming.Interval(stats.Correlation, interval.GreaterThan(tau), MethodIndex)
			if err != nil {
				t.Fatal(err)
			}
			cres, err := cold.Interval(stats.Correlation, interval.GreaterThan(tau), MethodIndex)
			if err != nil {
				t.Fatal(err)
			}
			ss, cs := pairSet(sres.Pairs), pairSet(cres.Pairs)
			if len(ss) != len(cs) {
				t.Fatalf("round %d tau %v: index sets %d vs %d", round, tau, len(ss), len(cs))
			}
			for p := range ss {
				if !cs[p] {
					t.Fatalf("round %d tau %v: pair %v only in streaming result", round, tau, p)
				}
			}
			// Internal consistency: the index answers must match the affine
			// path of the same engine.
			ares, err := streaming.Interval(stats.Correlation, interval.GreaterThan(tau), MethodAffine)
			if err != nil {
				t.Fatal(err)
			}
			as := pairSet(ares.Pairs)
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

	truth, err := streaming.PairwiseSweepNaive(stats.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"streaming": streaming, "fresh": fresh} {
		approx, err := e.PairwiseSweepAffine(stats.Correlation)
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

	truth, err := e.PairwiseSweepNaive(stats.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.PairwiseSweepAffine(stats.Correlation)
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

// TestAutoAdvance checks that Append triggers Advance at the configured
// buffer size.
func TestAutoAdvance(t *testing.T) {
	const n, window = 12, 60
	fx := makeStreamFixture(t, n, window, 8, 23)
	e, err := Build(fx.window, Config{
		Clusters: 3, Seed: 1,
		Stream: StreamConfig{AutoAdvance: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Append(fx.ticks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if e.Epoch() != 0 || e.PendingSamples() != 3 {
		t.Fatalf("before auto-advance: epoch %d pending %d", e.Epoch(), e.PendingSamples())
	}
	if err := e.Append(fx.ticks[3]); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 || e.PendingSamples() != 0 {
		t.Fatalf("after auto-advance: epoch %d pending %d", e.Epoch(), e.PendingSamples())
	}
	if e.Data().StartIndex() != 4 {
		t.Fatalf("StartIndex = %d", e.Data().StartIndex())
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
// one Advance: every old sample is evicted and the running statistics are
// reseeded from the new window.
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
	truth, err := e.PairwiseSweepNaive(stats.Covariance)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.PairwiseSweepAffine(stats.Covariance)
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

// TestRunningStatsStayFreshAcrossEpochs pins the incremental per-series
// statistics against a from-scratch recomputation after several slides.
func TestRunningStatsStayFreshAcrossEpochs(t *testing.T) {
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
	st := e.state()
	for v := 0; v < n; v++ {
		s, err := e.Data().Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		wantVar, _ := stats.VarianceOf(s)
		if math.Abs(st.seriesVariance[v]-wantVar) > 1e-9*(1+math.Abs(wantVar)) {
			t.Fatalf("series %d variance %v vs %v", v, st.seriesVariance[v], wantVar)
		}
		wantSq, _ := stats.DotProductOf(s, s)
		if math.Abs(st.seriesSqNorm[v]-wantSq) > 1e-9*(1+math.Abs(wantSq)) {
			t.Fatalf("series %d sqnorm %v vs %v", v, st.seriesSqNorm[v], wantSq)
		}
	}
}
