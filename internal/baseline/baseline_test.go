package baseline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

func testData(t testing.TB, seed int64, n, m int) *timeseries.DataMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	series := make([][]float64, n)
	base := make([]float64, m)
	for i := range base {
		base[i] = math.Sin(float64(i) * 0.05)
	}
	for s := range series {
		col := make([]float64, m)
		scale := 0.5 + rng.Float64()*2
		for i := range col {
			col[i] = scale*base[i] + rng.NormFloat64()*0.3
		}
		series[s] = col
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNaiveLocationAndPairwise(t *testing.T) {
	d := testData(t, 1, 6, 50)
	naive := NewNaive(d)

	ids := []timeseries.SeriesID{0, 2, 4}
	means, err := naive.Location(measure.Mean, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		s, _ := d.Series(id)
		want, _ := measure.MeanOf(s)
		if math.Abs(means[i]-want) > 1e-12 {
			t.Fatalf("mean[%d] = %v, want %v", i, means[i], want)
		}
	}

	pairs := []timeseries.Pair{{U: 0, V: 4}, {U: 4, V: 0}, {U: 2, V: 2}}
	cov := make([]float64, len(pairs))
	if err := naive.SweepValues(measure.Lookup(measure.Covariance), pairs, cov); err != nil {
		t.Fatal(err)
	}
	s0, _ := d.Series(0)
	s4, _ := d.Series(4)
	want, _ := measure.CovarianceOf(s0, s4)
	if math.Abs(cov[0]-want) > 1e-12 {
		t.Fatalf("cov(0, 4) = %v, want %v", cov[0], want)
	}
	if cov[0] != cov[1] {
		t.Fatal("a pair's value must not depend on its orientation")
	}
	s2, _ := d.Series(2)
	if want, _ := measure.CovarianceOf(s2, s2); math.Abs(cov[2]-want) > 1e-12 {
		t.Fatalf("cov(2, 2) = %v, want the variance %v", cov[2], want)
	}

	if _, err := naive.Location(measure.Mean, []timeseries.SeriesID{99}); err == nil {
		t.Fatal("invalid id should error")
	}
}

// TestPairMeasure: one pair from scratch, and Location refuses a pairwise
// measure.
func TestPairMeasure(t *testing.T) {
	d, err := timeseries.NewDataMatrix([][]float64{{1, 2, 3, 4, 5}, {2, 4, 6, 8, 10}})
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(d)
	got := make([]float64, 1)
	if err := naive.SweepValues(measure.Lookup(measure.Correlation), []timeseries.Pair{{U: 0, V: 1}}, got); err != nil || math.Abs(got[0]-1) > 1e-12 {
		t.Fatalf("correlation = %v, %v; want 1", got[0], err)
	}
	if _, err := naive.Location(measure.Covariance, d.IDs()); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("Location of a pairwise measure: err = %v", err)
	}
}

func TestNaivePairwiseConstantSeriesIsNaN(t *testing.T) {
	d, _ := timeseries.NewDataMatrix([][]float64{{1, 2, 3}, {5, 5, 5}})
	naive := NewNaive(d)
	corr := make([]float64, 1)
	if err := naive.SweepValues(measure.Lookup(measure.Correlation), d.AllPairs(), corr); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(corr[0]) {
		t.Fatalf("correlation with constant series = %v, want NaN", corr[0])
	}
}

// sweepValuesScalar is the scalar W_N loop: one pair at a time through the
// measure registry, the oracle SweepValues' blocked kernels reproduce.
func sweepValuesScalar(d *timeseries.DataMatrix, sp *measure.Spec, pairs []timeseries.Pair, values []float64) error {
	for i, p := range pairs {
		v, err := measure.OrNaN(pairValue(d, sp.ID, p))
		if err != nil {
			return err
		}
		values[i] = v
	}
	return nil
}

// pairValue evaluates one pair from the raw series.
func pairValue(d *timeseries.DataMatrix, m measure.Measure, p timeseries.Pair) (float64, error) {
	su, err := d.Series(p.U)
	if err != nil {
		return 0, err
	}
	sv, err := d.Series(p.V)
	if err != nil {
		return 0, err
	}
	return measure.EvalPair(m, su, sv)
}

// TestSweepValuesMatchesScalar: the blocked sweep gives every pairwise
// measure the scalar loop's bits, NaN for NaN, diagonal pairs included.
func TestSweepValuesMatchesScalar(t *testing.T) {
	d, err := timeseries.NewDataMatrix([][]float64{
		{1, 2, 3, 4, 5, 6, 7}, {5, 5, 5, 5, 5, 5, 5}, {-3, 0.5, 2, -1, 4, 4, 0}, {0, 0, 0, 0, 0, 0, 0}, {2, 1, 2, 1, 2, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := append(d.AllPairs(), timeseries.Pair{U: 2, V: 2}, timeseries.Pair{U: 4, V: 0})
	naive := NewNaive(d)
	for _, m := range append(measure.ByClass(measure.DispersionClass), measure.ByClass(measure.DerivedClass)...) {
		sp := measure.Lookup(m)
		got, want := make([]float64, len(pairs)), make([]float64, len(pairs))
		if err := naive.SweepValues(sp, pairs, got); err != nil {
			t.Fatal(err)
		}
		if err := sweepValuesScalar(d, sp, pairs, want); err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%v %v: blocked %v, scalar %v", m, pairs[i], got[i], want[i])
			}
		}
	}
}

func TestNaiveThresholdAndRange(t *testing.T) {
	d := testData(t, 2, 8, 60)
	naive := NewNaive(d)

	above, err := naive.PairInterval(measure.Correlation, interval.GreaterThan(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range above {
		v, _ := pairValue(d, measure.Correlation, e)
		if v <= 0.5 {
			t.Fatalf("pair %v has correlation %v <= 0.5", e, v)
		}
	}
	below, err := naive.PairInterval(measure.Correlation, interval.LessThan(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(above)+len(below) > d.NumPairs() {
		t.Fatal("above and below overlap")
	}

	ranged, err := naive.PairInterval(measure.Correlation, interval.Between(0.2, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ranged {
		v, _ := pairValue(d, measure.Correlation, e)
		if v < 0.2 || v > 0.8 {
			t.Fatalf("pair %v value %v outside range", e, v)
		}
	}
	if _, err := naive.PairInterval(measure.Correlation, interval.Between(1, 0)); err == nil {
		t.Fatal("inverted range should error")
	}

	seriesAbove, err := naive.SeriesInterval(measure.Mean, interval.GreaterThan(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range seriesAbove {
		s, _ := d.Series(id)
		m, _ := measure.MeanOf(s)
		if m <= 0 {
			t.Fatalf("series %d mean %v <= 0", id, m)
		}
	}
	if _, err := naive.SeriesInterval(measure.Mean, interval.Between(1, 0)); err == nil {
		t.Fatal("inverted series range should error")
	}
	sr, err := naive.SeriesInterval(measure.Mean, interval.Between(-100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr) != d.NumSeries() {
		t.Fatalf("wide series range returned %d of %d", len(sr), d.NumSeries())
	}
}

func TestDFTNotPrecomputed(t *testing.T) {
	d := testData(t, 3, 4, 40)
	w := NewDFT(d, 5)
	if _, err := w.ApproxCorrelation(timeseries.Pair{U: 0, V: 1}); !errors.Is(err, ErrNotPrecomputed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.PairThreshold(0.5, true); !errors.Is(err, ErrNotPrecomputed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.PairRange(0, 1); !errors.Is(err, ErrNotPrecomputed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDFTApproximationAccuracy(t *testing.T) {
	// The W_F approximation should track the true correlation for smooth
	// (low-frequency dominated) series like the diurnal sensor signals.
	d := testData(t, 4, 10, 128)
	w := NewDFT(d, 8)
	if err := w.Precompute(); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for _, e := range d.AllPairs() {
		truth, err := pairValue(d, measure.Correlation, e)
		if err != nil {
			continue
		}
		approx, err := w.ApproxCorrelation(e)
		if err != nil {
			t.Fatal(err)
		}
		if approx < -1 || approx > 1 {
			t.Fatalf("approximation %v out of range", approx)
		}
		if diff := math.Abs(truth - approx); diff > maxErr {
			maxErr = diff
		}
	}
	if maxErr > 0.25 {
		t.Fatalf("max approximation error %.3f too large for smooth series", maxErr)
	}
}

func TestDFTDefaultCoefficientsAndDegenerate(t *testing.T) {
	d, _ := timeseries.NewDataMatrix([][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
		{3, 3, 3, 3, 3, 3, 3, 3}, // constant
	})
	w := NewDFT(d, 0)
	if w.numCoeffs != DefaultDFTCoefficients {
		t.Fatalf("default coefficients = %d", w.numCoeffs)
	}
	if err := w.Precompute(); err != nil {
		t.Fatal(err)
	}
	// Anti-correlated pair.
	v, err := w.ApproxCorrelation(timeseries.Pair{U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v > -0.8 {
		t.Fatalf("anti-correlated pair approximation = %v, want close to -1", v)
	}
	// Pair with the constant series is degenerate.
	if _, err := w.ApproxCorrelation(timeseries.Pair{U: 0, V: 2}); !errors.Is(err, measure.ErrZeroNormalizer) {
		t.Fatalf("degenerate pair err = %v", err)
	}
	// Invalid pair.
	if _, err := w.ApproxCorrelation(timeseries.Pair{U: 0, V: 99}); err == nil {
		t.Fatal("invalid pair should error")
	}
	// Threshold and range skip degenerate pairs rather than failing.
	res, err := w.PairThreshold(-2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res {
		if e.Contains(2) {
			t.Fatalf("degenerate pair %v included", e)
		}
	}
	if _, err := w.PairRange(1, -1); err == nil {
		t.Fatal("inverted range should error")
	}
	ranged, err := w.PairRange(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranged) != 1 {
		t.Fatalf("range [-1,1] should contain exactly the one non-degenerate pair, got %d", len(ranged))
	}
}

func TestDFTThresholdConsistentWithApproxValues(t *testing.T) {
	d := testData(t, 5, 8, 90)
	w := NewDFT(d, 6)
	if err := w.Precompute(); err != nil {
		t.Fatal(err)
	}
	tau := 0.6
	res, err := w.PairThreshold(tau, true)
	if err != nil {
		t.Fatal(err)
	}
	inResult := map[timeseries.Pair]bool{}
	for _, e := range res {
		inResult[e] = true
	}
	for _, e := range d.AllPairs() {
		v, err := w.ApproxCorrelation(e)
		if err != nil {
			continue
		}
		if (v > tau) != inResult[e] {
			t.Fatalf("pair %v: approx %v, threshold membership %v", e, v, inResult[e])
		}
	}
}
