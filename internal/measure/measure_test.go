package measure

import (
	"errors"
	"math"
	"testing"
)

// TestRegistryInvariants pins the structural contract every layer leans on:
// stable identities, parseable unique names, resolved bases, and the
// capability flags that drive routing.
func TestRegistryInvariants(t *testing.T) {
	all := All()
	if len(all) < 13 {
		t.Fatalf("registry has %d measures, want at least the 13 builtins", len(all))
	}
	for i, m := range all {
		if int(m) != i {
			t.Fatalf("measure %v has identity %d at position %d", m, int(m), i)
		}
		sp := Lookup(m)
		if sp.ID != m || sp.Name == "" || sp.Doc == "" {
			t.Fatalf("spec %v incomplete: %+v", m, sp)
		}
		parsed, err := Parse(sp.Name)
		if err != nil || parsed != m {
			t.Fatalf("Parse(%q) = %v, %v", sp.Name, parsed, err)
		}
		base := Lookup(sp.Base)
		if sp.Derived() {
			if base.Class != DispersionClass {
				t.Fatalf("%v base %v is not a T-measure", m, sp.Base)
			}
			if sp.ParamBlock == nil || sp.ValueBlock == nil || sp.SelfValue == nil {
				t.Fatalf("%v missing derived evaluators", m)
			}
		} else if sp.Base != m {
			t.Fatalf("%v base should be itself, got %v", m, sp.Base)
		}
		if sp.Pairwise() && (sp.EvalBase == nil || sp.Moment == nil || sp.EvalTerms == nil) {
			t.Fatalf("%v missing base evaluators", m)
		}
		if sp.NaivePasses <= 0 {
			t.Fatalf("%v NaivePasses = %v", m, sp.NaivePasses)
		}
	}
	if _, err := Parse("no-such-measure"); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("Parse unknown err = %v", err)
	}
	if Lookup(Jaccard).Indexable {
		t.Fatal("jaccard must declare itself non-indexable")
	}
	for _, m := range IndexableDerived() {
		if m == Jaccard {
			t.Fatal("IndexableDerived includes jaccard")
		}
	}
	if len(IndexableDerived()) != 7 {
		t.Fatalf("IndexableDerived has %d entries, want 7", len(IndexableDerived()))
	}
}

// TestDistanceMeasureValues pins the three new measures' naive evaluation
// against their textbook formulas on concrete vectors.
func TestDistanceMeasureValues(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 2, 1, 0}
	var sq float64
	for i := range x {
		d := x[i] - y[i]
		sq += d * d
	}
	wantEuclid := math.Sqrt(sq)
	wantMSD := sq / float64(len(x))
	dot := 0.0
	nx, ny := 0.0, 0.0
	for i := range x {
		dot += x[i] * y[i]
		nx += x[i] * x[i]
		ny += y[i] * y[i]
	}
	wantAngular := math.Acos(dot/math.Sqrt(nx*ny)) / math.Pi

	cases := []struct {
		m    Measure
		want float64
	}{
		{EuclideanDistance, wantEuclid},
		{MeanSquaredDifference, wantMSD},
		{AngularDistance, wantAngular},
	}
	for _, tc := range cases {
		got, err := EvalPair(tc.m, x, y)
		if err != nil {
			t.Fatalf("%v: %v", tc.m, err)
		}
		if math.Abs(got-tc.want) > 1e-12*(1+math.Abs(tc.want)) {
			t.Fatalf("%v = %v, want %v", tc.m, got, tc.want)
		}
	}

	// Self values: zero distance to oneself, similarity one.
	selfStat, err := NaiveSeriesStat(NeedVariance|NeedSqNorm, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Measure{EuclideanDistance, MeanSquaredDifference, AngularDistance} {
		v, err := Lookup(m).SelfValue(selfStat)
		if err != nil || v != 0 {
			t.Fatalf("%v self = %v, %v; want 0", m, v, err)
		}
	}
	zero := []float64{0, 0, 0}
	if _, err := EvalPair(AngularDistance, zero, zero); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("angular of zero vectors err = %v", err)
	}
	if v, err := EvalPair(EuclideanDistance, zero, zero); err != nil || v != 0 {
		t.Fatalf("euclidean of zero vectors = %v, %v; want 0", v, err)
	}
}

// TestEvalIdentityForTMeasures pins that Eval is the identity for T-measures
// and applies the transform for D-measures.
func TestEvalIdentityForTMeasures(t *testing.T) {
	if v, err := Lookup(Covariance).Eval(3.25, 0, 7); err != nil || v != 3.25 {
		t.Fatalf("covariance Eval = %v, %v", v, err)
	}
	if v, err := Lookup(Correlation).Eval(2, 4, 7); err != nil || v != 0.5 {
		t.Fatalf("correlation Eval = %v, %v", v, err)
	}
	if v, err := Lookup(Correlation).Eval(9, 4, 7); err != nil || v != 1 {
		t.Fatalf("correlation Eval clamp = %v, %v", v, err)
	}
	if _, err := Lookup(Correlation).Eval(1, 0, 7); !errors.Is(err, ErrZeroNormalizer) {
		t.Fatalf("correlation zero-param err = %v", err)
	}
}

// TestMomentAlphaConsistency pins the Observation-1 structure: the α vector
// is the moment matrix's first row, for both builtin T-measures.
func TestMomentAlphaConsistency(t *testing.T) {
	terms := PivotTerms{
		Cov:        [3]float64{2, 0.5, 3},
		Dot:        [3]float64{10, 4, 12},
		ColSums:    [2]float64{5, 6},
		NumSamples: 7,
	}
	covAlpha := Lookup(Covariance).Moment(terms).Alpha()
	if covAlpha != [3]float64{2, 0.5, 0} {
		t.Fatalf("covariance alpha = %v", covAlpha)
	}
	dotAlpha := Lookup(DotProduct).Moment(terms).Alpha()
	if dotAlpha != [3]float64{10, 4, 5} {
		t.Fatalf("dot-product alpha = %v", dotAlpha)
	}
	if Lookup(DotProduct).Moment(terms).C != 7 {
		t.Fatal("dot-product moment corner should be the sample count")
	}
}
