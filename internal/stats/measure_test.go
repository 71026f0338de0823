package stats

import (
	"errors"
	"testing"
)

func TestMeasureStringAndParse(t *testing.T) {
	for _, m := range AllMeasures() {
		name := m.String()
		if name == "" {
			t.Fatalf("measure %d has empty name", int(m))
		}
		parsed, err := ParseMeasure(name)
		if err != nil {
			t.Fatalf("ParseMeasure(%q): %v", name, err)
		}
		if parsed != m {
			t.Fatalf("ParseMeasure(%q) = %v, want %v", name, parsed, m)
		}
	}
	if _, err := ParseMeasure("nope"); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("ParseMeasure(nope) err = %v", err)
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
	for _, m := range append(TMeasures(), DMeasures()...) {
		if !m.Pairwise() {
			t.Fatalf("%v should be pairwise", m)
		}
	}
	if !Mean.Valid() || Measure(-1).Valid() || Measure(len(AllMeasures())).Valid() {
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

func TestMeasureGroupHelpers(t *testing.T) {
	if len(LMeasures()) != 3 || len(TMeasures()) != 2 || len(DMeasures()) != 8 {
		t.Fatal("measure group sizes are wrong")
	}
	total := len(LMeasures()) + len(TMeasures()) + len(DMeasures())
	if total != len(AllMeasures()) {
		t.Fatalf("groups cover %d measures, want %d", total, len(AllMeasures()))
	}
}
