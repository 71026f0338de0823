package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// rmsePct is the paper's %RMSE (Eq. 16) of an affine sweep against the naive
// one, over stream windows in which every value is defined.
func rmsePct(t *testing.T, truth, approx []float64) float64 {
	t.Helper()
	r, err := measure.RMSE(truth, approx)
	if err != nil || math.IsNaN(r) {
		t.Fatalf("RMSE = %v, %v", r, err)
	}
	return r
}

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

	truth, err := pipelineSweep(streaming, measure.Correlation, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"streaming": streaming, "fresh": fresh} {
		approx, err := pipelineSweep(e, measure.Correlation, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		rmse := rmsePct(t, truth, approx)
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

	truth, err := pipelineSweep(e, measure.Correlation, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := pipelineSweep(e, measure.Correlation, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	rmse := rmsePct(t, truth, approx)
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
	truth, err := pipelineSweep(e, measure.Covariance, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := pipelineSweep(e, measure.Covariance, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	rmse := rmsePct(t, truth, approx)
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
