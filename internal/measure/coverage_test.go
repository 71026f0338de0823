package measure

import (
	"errors"
	"math"
	"testing"
)

// TestMeasureMethods exercises the Measure-level accessors including their
// defensive behavior on unregistered values (the historical fallbacks other
// layers rely on).
func TestMeasureMethods(t *testing.T) {
	if Mean.String() != "mean" || Correlation.String() != "correlation" {
		t.Fatal("String names wrong")
	}
	if Measure(99).String() != "measure(99)" {
		t.Fatalf("unregistered String = %q", Measure(99).String())
	}
	if Measure(99).Class() != DerivedClass {
		t.Fatal("unregistered Class should fall back to DerivedClass")
	}
	if Measure(99).Base() != Measure(99) {
		t.Fatal("unregistered Base should be itself")
	}
	if !Measure(99).Pairwise() {
		t.Fatal("unregistered Pairwise should follow the Class fallback")
	}
	if Measure(99).Valid() || !Correlation.Valid() {
		t.Fatal("Valid is wrong")
	}
	if _, ok := Find(Measure(-1)); ok {
		t.Fatal("Find accepted a negative measure")
	}
	if sp, ok := Find(Cosine); !ok || sp.Name != "cosine" {
		t.Fatal("Find(Cosine) failed")
	}
	if LocationClass.String() != "L" || Class(42).String() != "class(42)" {
		t.Fatal("Class.String wrong")
	}
	if len(ByClass(LocationClass)) != 3 || len(ByClass(DispersionClass)) != 2 {
		t.Fatal("ByClass wrong")
	}
	if !Lookup(Mean).Location() || Lookup(Covariance).Location() {
		t.Fatal("Location helper wrong")
	}
}

// TestScalarPrimitives covers the raw-series building blocks, including the
// deterministic tie-break of the mode and the error paths.
func TestScalarPrimitives(t *testing.T) {
	if _, err := MeanOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("MeanOf empty")
	}
	if v, _ := MedianOf([]float64{3, 1, 2}); v != 2 {
		t.Fatalf("MedianOf odd = %v", v)
	}
	if v, _ := MedianOf([]float64{4, 1, 3, 2}); v != 2.5 {
		t.Fatalf("MedianOf even = %v", v)
	}
	if _, err := MedianOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("MedianOf empty")
	}
	if v, _ := ModeOf([]float64{1, 2, 2, 3}, 0); v != 2 {
		t.Fatalf("ModeOf = %v", v)
	}
	// Tie: the smaller value wins deterministically.
	if v, _ := ModeOf([]float64{5, 5, 1, 1}, 0.5); v != 1 {
		t.Fatalf("ModeOf tie = %v", v)
	}
	if _, err := ModeOf(nil, 0); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("ModeOf empty")
	}
	if SumOf([]float64{1, 2, 3.5}) != 6.5 {
		t.Fatal("SumOf wrong")
	}
	if v, _ := VarianceOf([]float64{4}); v != 0 {
		t.Fatal("VarianceOf single sample should be 0")
	}
	if _, err := VarianceOf(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("VarianceOf empty")
	}
	if v, _ := CovarianceOf([]float64{7}, []float64{9}); v != 0 {
		t.Fatal("CovarianceOf single sample should be 0")
	}
	if _, err := CovarianceOf([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatal("CovarianceOf mismatch")
	}
	if _, err := CovarianceOf(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("CovarianceOf empty")
	}
	if _, err := DotProductOf([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatal("DotProductOf mismatch")
	}
	if _, err := DotProductOf(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("DotProductOf empty")
	}
	cov, err := CovarianceOf([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || math.Abs(cov-2) > 1e-12 {
		t.Fatalf("CovarianceOf = %v, %v", cov, err)
	}
}

// TestEvalPairAllMeasures runs the naive evaluator across every pairwise
// measure and checks a few hand-computed values and every error path.
func TestEvalPairAllMeasures(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	for _, sp := range Specs() {
		if !sp.Pairwise() {
			if _, err := EvalPair(sp.ID, x, y); !errors.Is(err, ErrUnknownMeasure) {
				t.Fatalf("EvalPair(%v) on an L-measure err = %v", sp.ID, err)
			}
			continue
		}
		v, err := EvalPair(sp.ID, x, y)
		if err != nil {
			t.Fatalf("EvalPair(%v): %v", sp.ID, err)
		}
		if math.IsNaN(v) {
			t.Fatalf("EvalPair(%v) = NaN", sp.ID)
		}
	}
	// y = 2x exactly: correlation and cosine are 1, angular is 0.
	if v, _ := EvalPair(Correlation, x, y); v != 1 {
		t.Fatalf("correlation of exact multiples = %v", v)
	}
	if v, _ := EvalPair(Cosine, x, y); math.Abs(v-1) > 1e-12 {
		t.Fatalf("cosine of exact multiples = %v", v)
	}
	if v, _ := EvalPair(AngularDistance, x, y); math.Abs(v) > 1e-7 {
		t.Fatalf("angular of exact multiples = %v", v)
	}
	// Dice/harmonic/jaccard of identical vectors.
	if v, _ := EvalPair(Dice, x, x); v != 1 {
		t.Fatalf("dice of identical = %v", v)
	}
	if v, _ := EvalPair(HarmonicMean, x, x); v != 2 {
		t.Fatalf("harmonic of identical = %v", v)
	}
	if v, _ := EvalPair(Jaccard, x, x); v != 1 {
		t.Fatalf("jaccard of identical = %v", v)
	}
	if v, _ := EvalPair(EuclideanDistance, x, x); v != 0 {
		t.Fatalf("euclidean of identical = %v", v)
	}
	// Error paths.
	if _, err := EvalPair(Measure(99), x, y); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("EvalPair unknown err = %v", err)
	}
	if _, err := EvalPair(Correlation, nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("EvalPair empty err = %v", err)
	}
	constant := []float64{3, 3, 3, 3, 3}
	if _, err := EvalPair(Correlation, x, constant); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("correlation vs constant err = %v", err)
	}
	zeros := []float64{0, 0, 0, 0, 0}
	for _, m := range []Measure{Cosine, Dice, HarmonicMean, Jaccard} {
		if _, err := EvalPair(m, zeros, zeros); !errors.Is(err, ErrZeroNormalizer) {
			t.Fatalf("%v of zero vectors err = %v", m, err)
		}
	}
}

// TestSelfValues covers the diagonal declarations of every pairwise measure.
func TestSelfValues(t *testing.T) {
	s := SeriesStat{Variance: 2.5, SqNorm: 10}
	want := map[Measure]float64{
		Covariance: 2.5, DotProduct: 10,
		Correlation: 1, Cosine: 1, Jaccard: 1, Dice: 1, HarmonicMean: 2,
		EuclideanDistance: 0, MeanSquaredDifference: 0, AngularDistance: 0,
	}
	for m, w := range want {
		v, err := Lookup(m).SelfValue(s)
		if err != nil || v != w {
			t.Fatalf("%v self = %v, %v; want %v", m, v, err, w)
		}
	}
	zero := SeriesStat{}
	for _, m := range []Measure{Correlation, Cosine, Jaccard, Dice, HarmonicMean, AngularDistance} {
		if _, err := Lookup(m).SelfValue(zero); !errors.Is(err, ErrZeroNormalizer) {
			t.Fatalf("%v self of zero stats err = %v", m, err)
		}
	}
}

// TestEvalTermsAndMoments covers the T-measure term evaluators against the
// scalar primitives and the moment assembly, including error paths.
func TestEvalTermsAndMoments(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{0, 1, 0, 1}
	covT, err := Lookup(Covariance).EvalTerms(x, y)
	if err != nil {
		t.Fatal(err)
	}
	vx, _ := VarianceOf(x)
	cxy, _ := CovarianceOf(x, y)
	if covT.Cov[0] != vx || covT.Cov[1] != cxy || covT.NumSamples != 4 {
		t.Fatalf("covariance terms %+v", covT)
	}
	mm := Lookup(Covariance).Moment(covT)
	if mm.H != [2]float64{} || mm.C != 0 {
		t.Fatal("covariance moment should have zero augmentation")
	}
	dotT, err := Lookup(DotProduct).EvalTerms(x, y)
	if err != nil {
		t.Fatal(err)
	}
	dxy, _ := DotProductOf(x, y)
	if dotT.Dot[1] != dxy || dotT.ColSums != [2]float64{10, 2} {
		t.Fatalf("dot terms %+v", dotT)
	}
	// D-measures inherit their base's evaluators.
	if Lookup(EuclideanDistance).Moment(dotT) != Lookup(DotProduct).Moment(dotT) {
		t.Fatal("euclidean should inherit the dot-product moment")
	}
	if _, err := Lookup(Covariance).EvalTerms(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("covariance terms empty err = %v", err)
	}
	if _, err := Lookup(DotProduct).EvalTerms(x, y[:2]); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("dot terms mismatch err = %v", err)
	}
	if _, err := Lookup(Covariance).EvalTerms(x, y[:2]); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("cov terms mismatch err = %v", err)
	}
}

// TestLocationEvaluators covers the L-measure spec evaluators.
func TestLocationEvaluators(t *testing.T) {
	x := []float64{1, 1, 2, 6}
	if v, _ := Lookup(Mean).EvalLocation(x); v != 2.5 {
		t.Fatalf("mean = %v", v)
	}
	if v, _ := Lookup(Median).EvalLocation(x); v != 1.5 {
		t.Fatalf("median = %v", v)
	}
	if v, _ := Lookup(Mode).EvalLocation(x); v != 1 {
		t.Fatalf("mode = %v", v)
	}
}

// TestNaiveSeriesStatMask covers the lazy statistic selection.
func TestNaiveSeriesStatMask(t *testing.T) {
	x := []float64{1, 2, 3}
	s, err := NaiveSeriesStat(NeedVariance|NeedSqNorm, x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 1 || s.SqNorm != 14 {
		t.Fatalf("stats %+v", s)
	}
	s, err = NaiveSeriesStat(NeedSqNorm, x)
	if err != nil || s.Variance != 0 || s.SqNorm != 14 {
		t.Fatalf("masked stats %+v, %v", s, err)
	}
	if _, err := NaiveSeriesStat(NeedVariance, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("variance of empty should error")
	}
	if _, err := NaiveSeriesStat(NeedSqNorm, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatal("sqnorm of empty should error")
	}
}

// TestRegisterValidation covers the registration panics for malformed specs.
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("unnamed", Spec{Class: LocationClass, EvalLocation: MeanOf})
	mustPanic("duplicate", Spec{Name: "mean", Class: LocationClass, EvalLocation: MeanOf})
	mustPanic("L without evaluator", Spec{Name: "cov-test-l", Class: LocationClass})
	mustPanic("T without base", Spec{Name: "cov-test-t", Class: DispersionClass})
	mustPanic("T without a blocked kernel", Spec{Name: "cov-test-t2", Class: DispersionClass,
		EvalBase: CovarianceOf, EvalTerms: Lookup(Covariance).EvalTerms, Moment: Lookup(Covariance).Moment, SelfValue: Lookup(Covariance).SelfValue})
	mustPanic("D without base", Spec{Name: "cov-test-d", Class: DerivedClass, Base: Mean})
	mustPanic("D without transform", Spec{Name: "cov-test-d2", Class: DerivedClass, Base: Covariance})
	mustPanic("unknown class", Spec{Name: "cov-test-c", Class: Class(9)})
	if Lookup(Mean).Name != "mean" {
		t.Fatal("failed registrations must not disturb the registry")
	}
}
