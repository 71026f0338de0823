package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAndNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Norm([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
	assertPanics(t, func() { Dot([]float64{1}, []float64{1, 2}) }, "Dot length mismatch")
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float64{3, 4})
	if !VecEqual(v, []float64{0.6, 0.8}, 1e-12) {
		t.Fatalf("Normalize = %v", v)
	}
	z := Normalize([]float64{0, 0})
	if !VecEqual(z, []float64{0, 0}, 0) {
		t.Fatalf("Normalize of zero vector = %v, want unchanged", z)
	}
}

func TestAxpyScaleSubAdd(t *testing.T) {
	if got := SubVec([]float64{5, 5}, []float64{2, 3}); !VecEqual(got, []float64{3, 2}, 0) {
		t.Fatalf("SubVec = %v", got)
	}
	if got := AddVec([]float64{5, 5}, []float64{2, 3}); !VecEqual(got, []float64{7, 8}, 0) {
		t.Fatalf("AddVec = %v", got)
	}
	assertPanics(t, func() { SubVec([]float64{1}, []float64{1, 2}) }, "SubVec mismatch")
	assertPanics(t, func() { AddVec([]float64{1}, []float64{1, 2}) }, "AddVec mismatch")
}

func TestSumMean(t *testing.T) {
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestProjectAndProjectionError(t *testing.T) {
	x := []float64{1, 1}
	r := []float64{1, 0}
	p := Project(x, r)
	if !VecEqual(p, []float64{1, 0}, 1e-12) {
		t.Fatalf("Project = %v", p)
	}
	if got := ProjectionError(x, r); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ProjectionError = %v, want 1", got)
	}
	// Projection onto zero direction is the zero vector.
	if !VecEqual(Project(x, []float64{0, 0}), []float64{0, 0}, 0) {
		t.Fatal("projection onto zero vector should be zero")
	}
	// Projecting a vector onto itself has zero error.
	if got := ProjectionError(x, x); got > 1e-12 {
		t.Fatalf("self projection error = %v", got)
	}
}

// Property: the projection residual is orthogonal to the direction, and the
// Pythagorean identity ||x||^2 = ||proj||^2 + ||resid||^2 holds.
func TestProjectionPythagoreanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		x := make([]float64, n)
		r := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			r[i] = rng.NormFloat64()
		}
		p := Project(x, r)
		resid := SubVec(x, p)
		if math.Abs(Dot(resid, r)) > 1e-8*(1+Norm(x)*Norm(r)) {
			return false
		}
		lhs := Dot(x, x)
		rhs := Dot(p, p) + Dot(resid, resid)
		return math.Abs(lhs-rhs) <= 1e-8*(1+lhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestVecEqualAndHasNaN(t *testing.T) {
	if VecEqual([]float64{1}, []float64{1, 2}, 0) {
		t.Fatal("different lengths must not be equal")
	}
	if !VecEqual([]float64{1, 2}, []float64{1.0000001, 2}, 1e-3) {
		t.Fatal("values within tolerance must be equal")
	}
	if HasNaN([]float64{1, 2}) {
		t.Fatal("no NaN expected")
	}
	if !HasNaN([]float64{1, math.NaN()}) {
		t.Fatal("NaN must be detected")
	}
	if !HasNaN([]float64{math.Inf(1)}) {
		t.Fatal("Inf must be detected")
	}
}

func TestNormOverflowResistance(t *testing.T) {
	big := 1e200
	got := Norm([]float64{big, big})
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm with large values = %v, want %v", got, want)
	}
}
