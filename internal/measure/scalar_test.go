package measure

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The scalar primitives and the registry's measure identities, evaluated from
// raw samples.

func TestMeasureStringAndParse(t *testing.T) {
	for _, m := range All() {
		name := m.String()
		if name == "" {
			t.Fatalf("measure %d has empty name", int(m))
		}
		parsed, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if parsed != m {
			t.Fatalf("Parse(%q) = %v, want %v", name, parsed, m)
		}
	}
	if _, err := Parse("nope"); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("Parse(nope) err = %v", err)
	}
	if Measure(99).String() == "" {
		t.Fatal("out-of-range measure should still render a string")
	}
}

func TestMeasureClasses(t *testing.T) {
	classes := map[Measure]Class{
		Mean: LocationClass, Median: LocationClass, Mode: LocationClass,
		Covariance: DispersionClass, DotProduct: DispersionClass,
		Correlation: DerivedClass, Cosine: DerivedClass, Jaccard: DerivedClass,
		Dice: DerivedClass, HarmonicMean: DerivedClass,
		EuclideanDistance: DerivedClass, MeanSquaredDifference: DerivedClass,
		AngularDistance: DerivedClass,
	}
	for m, want := range classes {
		if got := m.Class(); got != want {
			t.Fatalf("%v.Class() = %v, want %v", m, got, want)
		}
	}
	if LocationClass.String() != "L" || DispersionClass.String() != "T" || DerivedClass.String() != "D" {
		t.Fatal("class names are wrong")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should render something")
	}
}

func TestMeasurePairwiseAndValid(t *testing.T) {
	if Mean.Pairwise() || Median.Pairwise() || Mode.Pairwise() {
		t.Fatal("L-measures are not pairwise")
	}
	for _, m := range append(ByClass(DispersionClass), ByClass(DerivedClass)...) {
		if !m.Pairwise() {
			t.Fatalf("%v should be pairwise", m)
		}
	}
	if !Mean.Valid() || Measure(-1).Valid() || Measure(len(All())).Valid() {
		t.Fatal("Valid() is wrong")
	}
}

func TestMeasureBase(t *testing.T) {
	if Correlation.Base() != Covariance {
		t.Fatal("correlation base should be covariance")
	}
	for _, m := range []Measure{
		Cosine, Jaccard, Dice, HarmonicMean,
		EuclideanDistance, MeanSquaredDifference, AngularDistance,
	} {
		if m.Base() != DotProduct {
			t.Fatalf("%v base should be dot product", m)
		}
	}
	for _, m := range []Measure{Mean, Median, Mode, Covariance, DotProduct} {
		if m.Base() != m {
			t.Fatalf("%v base should be itself", m)
		}
	}
}

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
	pos, err := EvalPair(Correlation, x, []float64{2, 4, 6, 8, 10})
	if err != nil || !almostEqual(pos, 1, 1e-12) {
		t.Fatalf("positive correlation = %v, %v", pos, err)
	}
	neg, err := EvalPair(Correlation, x, []float64{10, 8, 6, 4, 2})
	if err != nil || !almostEqual(neg, -1, 1e-12) {
		t.Fatalf("negative correlation = %v, %v", neg, err)
	}

	// Constant series: zero normalizer.
	if _, err := EvalPair(Correlation, x, []float64{3, 3, 3, 3, 3}); !errors.Is(err, ErrZeroNormalizer) {
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
		r, err := EvalPair(Correlation, x, y)
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
	cos, err := EvalPair(Cosine, x, y)
	if err != nil || !almostEqual(cos, 0.5, 1e-12) {
		t.Fatalf("CosineOf = %v, %v", cos, err)
	}
	jac, err := EvalPair(Jaccard, x, y)
	if err != nil || !almostEqual(jac, 1.0/3.0, 1e-12) {
		t.Fatalf("Jaccard = %v, %v", jac, err)
	}
	dice, err := EvalPair(Dice, x, y)
	if err != nil || !almostEqual(dice, 0.5, 1e-12) {
		t.Fatalf("Dice = %v, %v", dice, err)
	}
	hm, err := EvalPair(HarmonicMean, x, y)
	if err != nil || !almostEqual(hm, 1.0, 1e-12) {
		t.Fatalf("HarmonicMean = %v, %v", hm, err)
	}

	// Self-similarity should be 1 for cosine, Jaccard and Dice.
	for _, m := range []Measure{Cosine, Jaccard, Dice} {
		v, err := EvalPair(m, x, x)
		if err != nil || !almostEqual(v, 1, 1e-12) {
			t.Fatalf("%v self similarity = %v, %v", m, v, err)
		}
	}

	// Zero vectors have zero normalizers.
	z := []float64{0, 0, 0, 0}
	if _, err := EvalPair(Cosine, z, z); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("zero-vector cosine err = %v", err)
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
		r1, err1 := EvalPair(Correlation, x, y)
		r2, err2 := EvalPair(Correlation, scaled, y)
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
		r3, err3 := EvalPair(Correlation, negated, y)
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
		c, err := EvalPair(Cosine, x, y)
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
		for _, m := range append(ByClass(DispersionClass), ByClass(DerivedClass)...) {
			a, errA := EvalPair(m, x, y)
			b, errB := EvalPair(m, y, x)
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
