package affine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinity/internal/mat"
	"affinity/internal/measure"
)

func randomPairMatrix(rng *rand.Rand, m int) *mat.Matrix {
	a := mat.New(m, 2)
	for i := 0; i < m; i++ {
		a.Set(i, 0, rng.NormFloat64()*3+1)
		a.Set(i, 1, rng.NormFloat64()*2-1)
	}
	return a
}

// pairMeans is the mean of each column of a pair matrix.
func pairMeans(x *mat.Matrix) [2]float64 {
	m0, _ := measure.MeanOf(x.Col(0))
	m1, _ := measure.MeanOf(x.Col(1))
	return [2]float64{m0, m1}
}

// pairCovariance is Σ(X), the 2-by-2 sample covariance matrix of a pair
// matrix's columns (Eq. 2).
func pairCovariance(x *mat.Matrix) *mat.Matrix {
	v0, _ := measure.VarianceOf(x.Col(0))
	v1, _ := measure.VarianceOf(x.Col(1))
	cov, _ := measure.CovarianceOf(x.Col(0), x.Col(1))
	out, _ := mat.NewFromRows([][]float64{{v0, cov}, {cov, v1}})
	return out
}

func randomTransform(rng *rand.Rand) *Transform {
	for {
		a := [2][2]float64{
			{rng.NormFloat64(), rng.NormFloat64()},
			{rng.NormFloat64(), rng.NormFloat64()},
		}
		if d := a[0][0]*a[1][1] - a[0][1]*a[1][0]; math.Abs(d) > 0.1 {
			return &Transform{A: a, B: [2]float64{rng.NormFloat64(), rng.NormFloat64()}}
		}
	}
}

// equalA reports whether two transformation matrices agree within tol.
func equalA(a, b [2][2]float64, tol float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

var identityA = [2][2]float64{{1, 0}, {0, 1}}

func TestFitRecoversExactTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		x := randomPairMatrix(rng, 40)
		truth := randomTransform(rng)
		y, err := truth.Apply(x)
		if err != nil {
			t.Fatal(err)
		}
		fitted, err := Fit(x, y)
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if !equalA(fitted.A, truth.A, 1e-7) {
			t.Fatalf("trial %d: A mismatch\nfitted %v\ntruth %v", trial, fitted.A, truth.A)
		}
		if math.Abs(fitted.B[0]-truth.B[0]) > 1e-7 || math.Abs(fitted.B[1]-truth.B[1]) > 1e-7 {
			t.Fatalf("trial %d: b mismatch %v vs %v", trial, fitted.B, truth.B)
		}
	}
}

func TestFitWithPseudoInverseMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomPairMatrix(rng, 30)
	y := randomPairMatrix(rng, 30)
	direct, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	design, err := DesignMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	pinv, err := mat.PseudoInverse(design)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := FitWithPseudoInverse(pinv, y)
	if err != nil {
		t.Fatal(err)
	}
	if !equalA(direct.A, cached.A, 1e-10) ||
		math.Abs(direct.B[0]-cached.B[0]) > 1e-10 ||
		math.Abs(direct.B[1]-cached.B[1]) > 1e-10 {
		t.Fatal("cached pseudo-inverse fit differs from direct fit")
	}
}

func TestFitCommonSeriesGivesCanonicalFirstColumn(t *testing.T) {
	// When the source and target share their first column (the common series
	// of a pivot pair), the least-squares fit reproduces that column exactly:
	// a1 = (1, 0)ᵀ and b1 = 0.  The SCAPE index relies on this structure.
	rng := rand.New(rand.NewSource(3))
	common := make([]float64, 50)
	other := make([]float64, 50)
	center := make([]float64, 50)
	for i := range common {
		common[i] = rng.NormFloat64()
		center[i] = rng.NormFloat64()
		other[i] = 0.7*center[i] + 0.1*rng.NormFloat64()
	}
	source, _ := mat.NewFromColumns(common, center)
	target, _ := mat.NewFromColumns(common, other)
	tr, err := Fit(source, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.A[0][0]-1) > 1e-8 || math.Abs(tr.A[1][0]) > 1e-8 || math.Abs(tr.B[0]) > 1e-8 {
		t.Fatalf("first column not canonical: a1=(%v,%v) b1=%v",
			tr.A[0][0], tr.A[1][0], tr.B[0])
	}
}

func TestShapeErrors(t *testing.T) {
	good := mat.New(10, 2)
	bad := mat.New(10, 3)
	short := mat.New(1, 2)
	if _, err := DesignMatrix(bad); !errors.Is(err, ErrBadShape) {
		t.Fatalf("DesignMatrix err = %v", err)
	}
	if _, err := DesignMatrix(short); !errors.Is(err, ErrBadShape) {
		t.Fatalf("DesignMatrix short err = %v", err)
	}
	if _, err := Fit(bad, good); !errors.Is(err, ErrBadShape) {
		t.Fatalf("Fit err = %v", err)
	}
	if _, err := Fit(good, bad); !errors.Is(err, ErrBadShape) {
		t.Fatalf("Fit target err = %v", err)
	}
	tr := &Transform{A: identityA}
	if _, err := tr.Apply(bad); !errors.Is(err, ErrBadShape) {
		t.Fatalf("Apply err = %v", err)
	}
	if _, err := tr.PropagateCovariance(mat.New(3, 3)); !errors.Is(err, ErrBadShape) {
		t.Fatalf("PropagateCovariance err = %v", err)
	}
	pinv := mat.New(2, 2)
	if _, err := FitWithPseudoInverse(pinv, good); !errors.Is(err, ErrBadShape) {
		t.Fatalf("FitWithPseudoInverse err = %v", err)
	}
	if _, err := FitWithPseudoInverse(mat.New(3, 10), bad); !errors.Is(err, ErrBadShape) {
		t.Fatalf("FitWithPseudoInverse target err = %v", err)
	}
}

// Property (Eq. 5): the mean propagates exactly through an exact affine
// transformation.
func TestPropagateLocationMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(60)
		x := randomPairMatrix(rng, m)
		tr := randomTransform(rng)
		y, err := tr.Apply(x)
		if err != nil {
			return false
		}
		got := tr.PropagateLocation(pairMeans(x))
		want := pairMeans(y)
		tol := 1e-8 * (1 + math.Abs(want[0]) + math.Abs(want[1]))
		return math.Abs(got[0]-want[0]) <= tol && math.Abs(got[1]-want[1]) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (Eq. 6): the covariance propagates exactly through an exact affine
// transformation.
func TestPropagateCovarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(60)
		x := randomPairMatrix(rng, m)
		tr := randomTransform(rng)
		y, err := tr.Apply(x)
		if err != nil {
			return false
		}
		covX, covYWant := pairCovariance(x), pairCovariance(y)
		scale := 1 + covYWant.MaxAbs()
		v := tr.PropagateSecondVariance([3]float64{covX.At(0, 0), covX.At(0, 1), covX.At(1, 1)})
		if math.Abs(v-covYWant.At(1, 1)) > 1e-8*scale {
			return false
		}
		offDiag, err := tr.PropagateCovariance(covX)
		if err != nil {
			return false
		}
		return math.Abs(offDiag-covYWant.At(0, 1)) <= 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// dotMoment is the dot product's augmented second-moment matrix of a source
// pair matrix: the Gram block, the column sums and the sample count.
func dotMoment(x *mat.Matrix) (measure.Moment, error) {
	sp := measure.Lookup(measure.DotProduct)
	terms, err := sp.EvalTerms(x.Col(0), x.Col(1))
	if err != nil {
		return measure.Moment{}, err
	}
	return sp.Moment(terms), nil
}

// Property (Eq. 7, exact form): the dot product propagates exactly through an
// exact affine transformation.
func TestPropagateDotProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(60)
		x := randomPairMatrix(rng, m)
		tr := randomTransform(rng)
		y, err := tr.Apply(x)
		if err != nil {
			return false
		}
		mm, err := dotMoment(x)
		if err != nil {
			return false
		}
		got := tr.PropagateMoment(mm)
		want, err := measure.DotProductOf(y.Col(0), y.Col(1))
		if err != nil {
			return false
		}
		return math.Abs(got-want) <= 1e-7*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 1): when the source and target share a column and the
// transformation is fitted by least squares, the dot product between the two
// target series is preserved exactly even though the fit itself has error.
func TestLemma1DotProductPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 10 + rng.Intn(50)
		common := make([]float64, m)
		center := make([]float64, m)
		target := make([]float64, m)
		for i := 0; i < m; i++ {
			common[i] = rng.NormFloat64()
			center[i] = rng.NormFloat64()
			// The target is NOT an exact combination: it has noise outside
			// the span of {common, center}.
			target[i] = 0.4*common[i] - 1.3*center[i] + rng.NormFloat64()
		}
		source, _ := mat.NewFromColumns(common, center)
		targetPair, _ := mat.NewFromColumns(common, target)
		tr, err := Fit(source, targetPair)
		if err != nil {
			return false
		}
		mm, err := dotMoment(source)
		if err != nil {
			return false
		}
		got := tr.PropagateMoment(mm)
		want, _ := measure.DotProductOf(common, target)
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropagateMeasure pins the spec-driven propagation path against the
// direct computation on the transformed pair matrix, for an increasing ratio
// measure per base (correlation, cosine) and a decreasing distance measure
// (Euclidean), plus the error paths.
func TestPropagateMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := 60
	x := randomPairMatrix(rng, m)
	tr := randomTransform(rng)
	y, err := tr.Apply(x)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []measure.Measure{measure.Correlation, measure.Cosine, measure.EuclideanDistance} {
		sp := measure.Lookup(id)
		base := measure.Lookup(sp.Base)
		terms, err := base.EvalTerms(x.Col(0), x.Col(1))
		if err != nil {
			t.Fatalf("%v terms: %v", id, err)
		}
		statOf := func(col []float64) measure.SeriesStat {
			s, err := measure.NaiveSeriesStat(sp.ParamStats, col)
			if err != nil {
				t.Fatalf("%v stats: %v", id, err)
			}
			return s
		}
		param := sp.Param(statOf(y.Col(0)), statOf(y.Col(1)))
		got, err := tr.PropagateMeasure(sp, base.Moment(terms), param, m)
		if err != nil {
			t.Fatalf("%v propagate: %v", id, err)
		}
		want, err := measure.EvalPair(id, y.Col(0), y.Col(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("%v: got %v, want %v", id, got, want)
		}
	}

	// Error paths: non-pairwise spec, zero parameter on a ratio transform.
	covSp := measure.Lookup(measure.Covariance)
	covTerms, _ := covSp.EvalTerms(x.Col(0), x.Col(1))
	if _, err := tr.PropagateMeasure(measure.Lookup(measure.Mean), covSp.Moment(covTerms), 1, m); err == nil {
		t.Fatal("non-pairwise measure should error")
	}
	corrSp := measure.Lookup(measure.Correlation)
	if _, err := tr.PropagateMeasure(corrSp, covSp.Moment(covTerms), 0, m); !errors.Is(err, measure.ErrZeroNormalizer) {
		t.Fatalf("zero normalizer err = %v", err)
	}
}

func TestPropagateVariances(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randomPairMatrix(rng, 40)
	tr := randomTransform(rng)
	y, _ := tr.Apply(x)
	covX := pairCovariance(x)
	v := tr.PropagateSecondVariance([3]float64{covX.At(0, 0), covX.At(0, 1), covX.At(1, 1)})
	v1, _ := measure.VarianceOf(y.Col(1))
	if math.Abs(v-v1) > 1e-8*(1+v1) {
		t.Fatalf("propagated variance %v, want %v", v, v1)
	}
}

// TestPropagateVariancesMatchesMatrixChain: the closed form must return the
// bits of entry (2, 2) of the generic Aᵀ·Σ·A product — the streaming drift
// scorer's stale set depends on them — including when exact zeros in A or in
// an intermediate row trigger mat.Mul's zero skip, and at extreme magnitudes.
func TestPropagateVariancesMatchesMatrixChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	negZero := math.Copysign(0, -1)
	pick := func(scale float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return negZero
		default:
			return scale * rng.NormFloat64()
		}
	}
	for trial := 0; trial < 4000; trial++ {
		scale := []float64{1, 1e150, 1e-150, 1e-200}[trial%4]
		tr := &Transform{A: [2][2]float64{{pick(scale), pick(1)}, {pick(1), pick(scale)}}}
		terms := [3]float64{pick(scale), pick(scale), pick(1)}
		if trial%7 == 0 { // an intermediate that cancels to exactly zero
			tr.A = [2][2]float64{{1, 2}, {-1, 3}}
			terms = [3]float64{4, 4, 1}
		}
		cov, _ := mat.NewFromRows([][]float64{{terms[0], terms[1]}, {terms[1], terms[2]}})
		a := tr.matrix()
		tmp, err := a.T().Mul(cov)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tmp.Mul(a)
		if err != nil {
			t.Fatal(err)
		}
		got, want := tr.PropagateSecondVariance(terms), full.At(1, 1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: variance = %v (%#x), matrix chain %v (%#x)\nA=%v cov=%v", trial,
				got, math.Float64bits(got), want, math.Float64bits(want), tr.A, cov)
		}
	}
}

func TestCloneAndString(t *testing.T) {
	tr := &Transform{A: identityA, B: [2]float64{1, 2}}
	cp := tr.Clone()
	cp.A[0][0] = 99
	cp.B[0] = 99
	if tr.A[0][0] != 1 || tr.B[0] != 1 {
		t.Fatal("Clone must not share state")
	}
	if tr.String() == "" {
		t.Fatal("String should render")
	}
	a1, a2 := tr.Columns()
	if a1 != [2]float64{1, 0} || a2 != [2]float64{0, 1} {
		t.Fatalf("Columns = %v, %v", a1, a2)
	}
}
