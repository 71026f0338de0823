package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinity/internal/timeseries"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMedianMode(t *testing.T) {
	x := []float64{1, 2, 2, 3, 7}

	mean, err := MeanOf(x)
	if err != nil || !almostEqual(mean, 3, 1e-12) {
		t.Fatalf("MeanOf = %v, %v", mean, err)
	}

	median, err := MedianOf(x)
	if err != nil || median != 2 {
		t.Fatalf("MedianOf = %v, %v", median, err)
	}

	medianEven, err := MedianOf([]float64{4, 1, 3, 2})
	if err != nil || medianEven != 2.5 {
		t.Fatalf("MedianOf even = %v, %v", medianEven, err)
	}

	mode, err := ModeOf(x, 0)
	if err != nil || !almostEqual(mode, 2, 1e-9) {
		t.Fatalf("ModeOf = %v, %v", mode, err)
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	x := []float64{3, 1, 2}
	if _, err := MedianOf(x); err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatalf("MedianOf mutated its input: %v", x)
	}
}

func TestModeTieBreaking(t *testing.T) {
	// Both 1 and 2 occur twice: the smaller value must win deterministically.
	mode, err := ModeOf([]float64{2, 1, 2, 1, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mode, 1, 1e-9) {
		t.Fatalf("ModeOf tie = %v, want 1", mode)
	}
}

func TestModePrecisionBuckets(t *testing.T) {
	// With a coarse precision, 1.01 and 1.02 collapse into the same bucket.
	mode, err := ModeOf([]float64{1.01, 1.02, 5.0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mode, 1.0, 1e-9) {
		t.Fatalf("coarse mode = %v, want 1.0", mode)
	}
}

func TestEmptyInputErrors(t *testing.T) {
	if _, err := MeanOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("MeanOf(nil) err = %v", err)
	}
	if _, err := MedianOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("MedianOf(nil) err = %v", err)
	}
	if _, err := ModeOf(nil, 0); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("ModeOf(nil) err = %v", err)
	}
	if _, err := VarianceOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("VarianceOf(nil) err = %v", err)
	}
	if _, err := CovarianceOf(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("CovarianceOf(nil,nil) err = %v", err)
	}
	if _, err := DotProductOf(nil, []float64{1}); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("DotProductOf err = %v", err)
	}
	if _, err := NormalizerOf(Correlation, nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("NormalizerOf err = %v", err)
	}
}

func TestLengthMismatchErrors(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2}
	if _, err := CovarianceOf(a, b); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("CovarianceOf err = %v", err)
	}
	if _, err := DotProductOf(a, b); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("DotProductOf err = %v", err)
	}
	if _, err := NormalizerOf(Cosine, a, b); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("NormalizerOf err = %v", err)
	}
}

func TestVarianceCovariance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	v, err := VarianceOf(x)
	if err != nil || !almostEqual(v, 2.5, 1e-12) {
		t.Fatalf("VarianceOf = %v, %v", v, err)
	}
	single, err := VarianceOf([]float64{7})
	if err != nil || single != 0 {
		t.Fatalf("VarianceOf single = %v, %v", single, err)
	}

	y := []float64{2, 4, 6, 8, 10}
	cov, err := CovarianceOf(x, y)
	if err != nil || !almostEqual(cov, 5, 1e-12) {
		t.Fatalf("CovarianceOf = %v, %v", cov, err)
	}
	covSingle, err := CovarianceOf([]float64{1}, []float64{2})
	if err != nil || covSingle != 0 {
		t.Fatalf("CovarianceOf single = %v, %v", covSingle, err)
	}
	// Cov(x,x) == Var(x).
	covXX, _ := CovarianceOf(x, x)
	if !almostEqual(covXX, v, 1e-12) {
		t.Fatalf("Cov(x,x)=%v != Var(x)=%v", covXX, v)
	}
}

func TestDotProductAndSum(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	dot, err := DotProductOf(x, y)
	if err != nil || dot != 32 {
		t.Fatalf("DotProductOf = %v, %v", dot, err)
	}
	if SumOf(x) != 6 {
		t.Fatalf("SumOf = %v", SumOf(x))
	}
	if SumOf(nil) != 0 {
		t.Fatalf("SumOf(nil) = %v", SumOf(nil))
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}

	// Perfect positive and negative correlation.
	pos, err := CorrelationOf(x, []float64{2, 4, 6, 8, 10})
	if err != nil || !almostEqual(pos, 1, 1e-12) {
		t.Fatalf("positive correlation = %v, %v", pos, err)
	}
	neg, err := CorrelationOf(x, []float64{10, 8, 6, 4, 2})
	if err != nil || !almostEqual(neg, -1, 1e-12) {
		t.Fatalf("negative correlation = %v, %v", neg, err)
	}

	// Constant series: zero normalizer.
	if _, err := CorrelationOf(x, []float64{3, 3, 3, 3, 3}); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("constant series err = %v", err)
	}
}

func TestCorrelationClamping(t *testing.T) {
	// Affine copies can produce |rho| marginally above 1 in floating point;
	// verify the clamp by checking the result is exactly within [-1, 1].
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 50)
		y := make([]float64, 50)
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		for i := range x {
			x[i] = rng.NormFloat64() * 1e6
			y[i] = a*x[i] + b
		}
		if a == 0 {
			continue
		}
		r, err := CorrelationOf(x, y)
		if err != nil {
			t.Fatalf("CorrelationOf: %v", err)
		}
		if r > 1 || r < -1 {
			t.Fatalf("correlation out of range: %v", r)
		}
	}
}

func TestDerivedDotProductMeasures(t *testing.T) {
	x := []float64{1, 0, 1, 0}
	y := []float64{1, 1, 0, 0}
	// dot = 1, |x|^2 = 2, |y|^2 = 2.
	cos, err := CosineOf(x, y)
	if err != nil || !almostEqual(cos, 0.5, 1e-12) {
		t.Fatalf("CosineOf = %v, %v", cos, err)
	}
	jac, err := ComputePair(Jaccard, x, y)
	if err != nil || !almostEqual(jac, 1.0/3.0, 1e-12) {
		t.Fatalf("Jaccard = %v, %v", jac, err)
	}
	dice, err := ComputePair(Dice, x, y)
	if err != nil || !almostEqual(dice, 0.5, 1e-12) {
		t.Fatalf("Dice = %v, %v", dice, err)
	}
	hm, err := ComputePair(HarmonicMean, x, y)
	if err != nil || !almostEqual(hm, 1.0, 1e-12) {
		t.Fatalf("HarmonicMean = %v, %v", hm, err)
	}

	// Self-similarity should be 1 for cosine, Jaccard and Dice.
	for _, m := range []Measure{Cosine, Jaccard, Dice} {
		v, err := ComputePair(m, x, x)
		if err != nil || !almostEqual(v, 1, 1e-12) {
			t.Fatalf("%v self similarity = %v, %v", m, v, err)
		}
	}

	// Zero vectors have zero normalizers.
	z := []float64{0, 0, 0, 0}
	if _, err := CosineOf(z, z); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("zero-vector cosine err = %v", err)
	}
}

func TestComputeLocationDispatch(t *testing.T) {
	x := []float64{5, 1, 1, 3}
	for _, tc := range []struct {
		m    Measure
		want float64
	}{
		{Mean, 2.5},
		{Median, 2},
		{Mode, 1},
	} {
		got, err := ComputeLocation(tc.m, x)
		if err != nil || !almostEqual(got, tc.want, 1e-9) {
			t.Fatalf("ComputeLocation(%v) = %v, %v; want %v", tc.m, got, err, tc.want)
		}
	}
	if _, err := ComputeLocation(Covariance, x); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("ComputeLocation(Covariance) err = %v", err)
	}
}

func TestComputePairDispatch(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 5, 9}
	for _, m := range append(TMeasures(), DMeasures()...) {
		if _, err := ComputePair(m, x, y); err != nil {
			t.Fatalf("ComputePair(%v): %v", m, err)
		}
	}
	if _, err := ComputePair(Mean, x, y); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("ComputePair(Mean) err = %v", err)
	}
}

func TestNormalizerUnknownMeasure(t *testing.T) {
	if _, err := NormalizerOf(Measure(99), []float64{1}, []float64{1}); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("unknown measure err = %v", err)
	}
	// L- and T-measures have normalizer 1.
	for _, m := range []Measure{Mean, Covariance, DotProduct} {
		n, err := NormalizerOf(m, []float64{1, 2}, []float64{3, 4})
		if err != nil || n != 1 {
			t.Fatalf("NormalizerOf(%v) = %v, %v", m, n, err)
		}
	}
}

// Property: correlation is invariant under positive affine transformations of
// either argument and flips sign for negative scalings.
func TestCorrelationAffineInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64() + 0.5*x[i]
		}
		scale := 0.5 + rng.Float64()*3
		shift := rng.NormFloat64() * 10
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = scale*x[i] + shift
		}
		r1, err1 := CorrelationOf(x, y)
		r2, err2 := CorrelationOf(scaled, y)
		if err1 != nil || err2 != nil {
			return true // degenerate draw (constant series), skip
		}
		if !almostEqual(r1, r2, 1e-9) {
			return false
		}
		negated := make([]float64, n)
		for i := range x {
			negated[i] = -scale*x[i] + shift
		}
		r3, err3 := CorrelationOf(negated, y)
		if err3 != nil {
			return true
		}
		return almostEqual(r1, -r3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy–Schwarz — |dot(x,y)| <= |x|·|y| and hence |cosine| <= 1.
func TestCosineBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		c, err := CosineOf(x, y)
		if err != nil {
			return true
		}
		return c <= 1+1e-12 && c >= -1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry of all pairwise measures.
func TestPairwiseSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		for _, m := range append(TMeasures(), DMeasures()...) {
			a, errA := ComputePair(m, x, y)
			b, errB := ComputePair(m, y, x)
			if (errA == nil) != (errB == nil) {
				return false
			}
			if errA == nil && !almostEqual(a, b, 1e-9*(1+math.Abs(a))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowLocationMatchesComputeLocation: reading an L-measure off a window
// (sorted column for the order statistics, raw series for the mean) gives the
// bits ComputeLocation gives on the raw series, before and after a slide.
func TestWindowLocationMatchesComputeLocation(t *testing.T) {
	d, err := timeseries.NewDataMatrix([][]float64{
		{3, 1, 2, 2, 9, -4, 0.5},
		{0, math.Copysign(0, -1), 0, 1, -1, 0, math.Copysign(0, -1)},
		{7, 7, 7, 7, 7, 7, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(d *timeseries.DataMatrix) {
		t.Helper()
		for _, m := range LMeasures() {
			for _, id := range d.IDs() {
				s, _ := d.Series(id)
				want, err := ComputeLocation(m, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := WindowLocation(m, d, id)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("WindowLocation(%v, series %d) = %v, %v; ComputeLocation = %v", m, id, got, err, want)
				}
			}
		}
	}
	check(d)
	next, err := d.SlideCopy([][]float64{{2, 2}, {math.Copysign(0, -1), 5}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	check(next)
	if _, err := WindowLocation(Covariance, d, 0); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("WindowLocation of a pairwise measure: err = %v", err)
	}
	for _, m := range LMeasures() {
		if _, err := WindowLocation(m, d, 9); !errors.Is(err, timeseries.ErrInvalidSeries) {
			t.Fatalf("WindowLocation(%v) of an unknown series: err = %v", m, err)
		}
	}
}
