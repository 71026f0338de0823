package stats

import (
	"errors"
	"math"
	"testing"

	"affinity/internal/mat"
	"affinity/internal/timeseries"
)

func testData(t *testing.T) *timeseries.DataMatrix {
	t.Helper()
	d, err := timeseries.NewNamedDataMatrix(
		[]string{"a", "b", "c"},
		[][]float64{
			{1, 2, 3, 4, 5},
			{2, 4, 6, 8, 10},
			{5, 3, 8, 1, 9},
		})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLocationVector(t *testing.T) {
	d := testData(t)
	means, err := LocationVector(Mean, d)
	if err != nil {
		t.Fatalf("LocationVector: %v", err)
	}
	if !almostEqual(means[0], 3, 1e-12) || !almostEqual(means[1], 6, 1e-12) {
		t.Fatalf("means = %v", means)
	}
	medians, err := LocationVector(Median, d)
	if err != nil {
		t.Fatalf("LocationVector median: %v", err)
	}
	if medians[2] != 5 {
		t.Fatalf("median[2] = %v", medians[2])
	}
	if _, err := LocationVector(Covariance, d); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("non-L measure err = %v", err)
	}
}

func TestPairwiseMatrixCovariance(t *testing.T) {
	d := testData(t)
	cov, err := PairwiseMatrix(Covariance, d)
	if err != nil {
		t.Fatalf("PairwiseMatrix(Covariance): %v", err)
	}
	if r, c := cov.Dims(); r != 3 || c != 3 {
		t.Fatalf("dims (%d,%d)", r, c)
	}
	// Diagonal equals variances.
	s0, _ := d.Series(0)
	v0, _ := VarianceOf(s0)
	if !almostEqual(cov.At(0, 0), v0, 1e-12) {
		t.Fatalf("cov[0,0] = %v, want %v", cov.At(0, 0), v0)
	}
	// Symmetry.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(cov.At(i, j), cov.At(j, i), 1e-12) {
				t.Fatal("covariance matrix not symmetric")
			}
		}
	}
	// Cross-check one entry against the scalar function.
	s1, _ := d.Series(1)
	c01, _ := CovarianceOf(s0, s1)
	if !almostEqual(cov.At(0, 1), c01, 1e-12) {
		t.Fatalf("cov[0,1] = %v, want %v", cov.At(0, 1), c01)
	}
}

func TestPairwiseMatrixCorrelationAndDot(t *testing.T) {
	d := testData(t)
	corr, err := CorrelationMatrix(d)
	if err != nil {
		t.Fatalf("CorrelationMatrix: %v", err)
	}
	if !almostEqual(corr.At(0, 1), 1, 1e-12) {
		t.Fatalf("corr[0,1] = %v, want 1 (series b = 2*a)", corr.At(0, 1))
	}
	if !almostEqual(corr.At(0, 0), 1, 1e-12) {
		t.Fatalf("diagonal correlation = %v, want 1", corr.At(0, 0))
	}

	dot, err := PairwiseMatrix(DotProduct, d)
	if err != nil {
		t.Fatalf("PairwiseMatrix(DotProduct): %v", err)
	}
	s0, _ := d.Series(0)
	s2, _ := d.Series(2)
	want, _ := DotProductOf(s0, s2)
	if !almostEqual(dot.At(0, 2), want, 1e-12) {
		t.Fatalf("dot[0,2] = %v, want %v", dot.At(0, 2), want)
	}

	if _, err := PairwiseMatrix(Mean, d); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("PairwiseMatrix(Mean) err = %v", err)
	}
}

func TestPairwiseMatrixConstantSeriesIsZeroNotError(t *testing.T) {
	d, _ := timeseries.NewDataMatrix([][]float64{
		{1, 2, 3},
		{5, 5, 5}, // constant: zero variance
	})
	corr, err := CorrelationMatrix(d)
	if err != nil {
		t.Fatalf("CorrelationMatrix with constant series: %v", err)
	}
	if corr.At(0, 1) != 0 {
		t.Fatalf("correlation with constant series = %v, want 0", corr.At(0, 1))
	}
}

func TestPairMeasure(t *testing.T) {
	d := testData(t)
	got, err := PairMeasure(Correlation, d, timeseries.Pair{U: 0, V: 1})
	if err != nil || !almostEqual(got, 1, 1e-12) {
		t.Fatalf("PairMeasure = %v, %v", got, err)
	}
	if _, err := PairMeasure(Correlation, d, timeseries.Pair{U: 0, V: 9}); err == nil {
		t.Fatal("invalid pair should error")
	}
	if _, err := PairMeasure(Correlation, d, timeseries.Pair{U: 9, V: 10}); err == nil {
		t.Fatal("invalid pair should error")
	}
}

func TestPairMatrixHelpers(t *testing.T) {
	d := testData(t)
	x, err := d.PairMatrix(timeseries.Pair{U: 0, V: 2})
	if err != nil {
		t.Fatal(err)
	}
	cov, err := PairMatrixCovariance(x)
	if err != nil {
		t.Fatalf("PairMatrixCovariance: %v", err)
	}
	s0, _ := d.Series(0)
	s2, _ := d.Series(2)
	wantCov, _ := CovarianceOf(s0, s2)
	if !almostEqual(cov.At(0, 1), wantCov, 1e-12) {
		t.Fatalf("pair cov = %v, want %v", cov.At(0, 1), wantCov)
	}
	wantVar, _ := VarianceOf(s2)
	if !almostEqual(cov.At(1, 1), wantVar, 1e-12) {
		t.Fatalf("pair var = %v, want %v", cov.At(1, 1), wantVar)
	}

	loc, err := PairMatrixLocation(Mean, x)
	if err != nil {
		t.Fatalf("PairMatrixLocation: %v", err)
	}
	if !almostEqual(loc[0], 3, 1e-12) {
		t.Fatalf("pair mean = %v", loc)
	}

	wide := mat.New(5, 3)
	if _, err := PairMatrixCovariance(wide); err == nil {
		t.Fatal("3-column matrix should error")
	}
	if _, err := PairMatrixLocation(Mean, wide); err == nil {
		t.Fatal("3-column matrix should error")
	}
}

func TestRMSE(t *testing.T) {
	truth := []float64{0, 1, 2, 3, 4}
	exact := []float64{0, 1, 2, 3, 4}
	r, err := RMSE(truth, exact)
	if err != nil || r != 0 {
		t.Fatalf("RMSE exact = %v, %v", r, err)
	}

	approx := []float64{0, 1, 2, 3, 8}
	r, err = RMSE(truth, approx)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized error: (4-8)/4 = -1 for one of five entries => RMSE = 100*sqrt(1/5).
	want := 100 * math.Sqrt(1.0/5.0)
	if !almostEqual(r, want, 1e-9) {
		t.Fatalf("RMSE = %v, want %v", r, want)
	}

	if _, err := RMSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch err = %v", err)
	}
	if r, err := RMSE(nil, nil); err != nil || r != 0 {
		t.Fatalf("empty RMSE = %v, %v", r, err)
	}
	// Zero range: falls back to absolute differences.
	r, err = RMSE([]float64{2, 2}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 100*math.Sqrt(0.5), 1e-9) {
		t.Fatalf("zero-range RMSE = %v", r)
	}
}
