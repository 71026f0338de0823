package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPseudoInverseSquareInvertible(t *testing.T) {
	a, _ := NewFromRows([][]float64{{4, 7}, {2, 6}})
	pinv, err := PseudoInverse(a)
	if err != nil {
		t.Fatalf("PseudoInverse: %v", err)
	}
	prod, _ := a.Mul(pinv)
	if !prod.Equal(Identity(2), 1e-9) {
		t.Fatalf("A * A+ != I, got %v", prod)
	}
}

func TestPseudoInverseTallMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 10, 3)
	pinv, err := PseudoInverse(a)
	if err != nil {
		t.Fatalf("PseudoInverse: %v", err)
	}
	if r, c := pinv.Dims(); r != 3 || c != 10 {
		t.Fatalf("pinv dims (%d,%d), want (3,10)", r, c)
	}
	// For a full-column-rank tall matrix, A+ A = I (left inverse).
	prod, _ := pinv.Mul(a)
	if !prod.Equal(Identity(3), 1e-8) {
		t.Fatalf("A+ A != I for full-column-rank tall matrix: %v", prod)
	}
}

// Property-based test of the four Moore–Penrose conditions.
func TestPseudoInverseMoorePenroseProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(6)
		cols := 1 + rng.Intn(4)
		a := randomMatrix(rng, rows, cols)
		p, err := PseudoInverse(a)
		if err != nil {
			return false
		}
		tol := 1e-7
		apa, _ := a.Mul(p)
		apa, _ = apa.Mul(a)
		if !apa.Equal(a, tol) { // A A+ A = A
			return false
		}
		pap, _ := p.Mul(a)
		pap, _ = pap.Mul(p)
		if !pap.Equal(p, tol) { // A+ A A+ = A+
			return false
		}
		ap, _ := a.Mul(p)
		if !ap.Equal(ap.T(), tol) { // (A A+) symmetric
			return false
		}
		pa, _ := p.Mul(a)
		return pa.Equal(pa.T(), tol) // (A+ A) symmetric
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	col := []float64{1, 2, 3, 4}
	a, _ := NewFromColumns(col, []float64{2, 4, 6, 8})
	p, err := PseudoInverse(a)
	if err != nil {
		t.Fatalf("PseudoInverse: %v", err)
	}
	// Even rank-deficient, A A+ A = A must hold.
	apa, _ := a.Mul(p)
	apa, _ = apa.Mul(a)
	if !apa.Equal(a, 1e-8) {
		t.Fatal("A A+ A != A for rank-deficient matrix")
	}
}

// pinvSolve is the least-squares solve affine.Fit runs: X = A⁺·B.
func pinvSolve(a, b *Matrix) (*Matrix, error) {
	p, err := PseudoInverse(a)
	if err != nil {
		return nil, err
	}
	return p.Mul(b)
}

func TestLeastSquaresExactSystem(t *testing.T) {
	// Overdetermined consistent system: columns of A combine to form B.
	a, _ := NewFromColumns(
		[]float64{1, 2, 3, 4, 5},
		[]float64{1, 1, 1, 1, 1},
	)
	// B = 2*x1 - 3*x2.
	bvec := make([]float64, 5)
	for i := range bvec {
		bvec[i] = 2*a.At(i, 0) - 3*a.At(i, 1)
	}
	b, _ := NewFromColumns(bvec)
	x, err := pinvSolve(a, b)
	if err != nil {
		t.Fatalf("pinvSolve: %v", err)
	}
	if math.Abs(x.At(0, 0)-2) > 1e-9 || math.Abs(x.At(1, 0)+3) > 1e-9 {
		t.Fatalf("least squares solution = %v, want [2 -3]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space of A.
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(rng, 20, 3)
	b := randomMatrix(rng, 20, 2)
	x, err := pinvSolve(a, b)
	if err != nil {
		t.Fatalf("pinvSolve: %v", err)
	}
	resid, _ := a.Mul(x)
	for i, v := range b.RawData() {
		resid.RawData()[i] = v - resid.RawData()[i]
	}
	atr, _ := a.T().Mul(resid)
	if atr.MaxAbs() > 1e-8 {
		t.Fatalf("A^T residual = %v, want ~0", atr.MaxAbs())
	}
}

func TestLeastSquaresDimensionMismatch(t *testing.T) {
	if _, err := pinvSolve(New(4, 2), New(3, 1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("row mismatch should error")
	}
}

func TestInverse2x2(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	inv, err := Inverse2x2(a)
	if err != nil {
		t.Fatalf("Inverse2x2: %v", err)
	}
	prod, _ := a.Mul(inv)
	if !prod.Equal(Identity(2), 1e-12) {
		t.Fatalf("A * A^-1 != I: %v", prod)
	}

	sing, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse2x2(sing); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix should return ErrSingular, got %v", err)
	}
	if _, err := Inverse2x2(New(3, 3)); err == nil {
		t.Fatal("non-2x2 should error")
	}
}

func TestDet2x2(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	d, err := Det2x2(a)
	if err != nil {
		t.Fatalf("Det2x2: %v", err)
	}
	if math.Abs(d+2) > 1e-12 {
		t.Fatalf("det = %v, want -2", d)
	}
	if _, err := Det2x2(New(1, 2)); err == nil {
		t.Fatal("non-2x2 should error")
	}
}

func TestSolveSquare(t *testing.T) {
	a, _ := NewFromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := SolveSquare(a, b)
	if err != nil {
		t.Fatalf("SolveSquare: %v", err)
	}
	if !VecEqual(x, []float64{2, 3, -1}, 1e-9) {
		t.Fatalf("solution = %v, want [2 3 -1]", x)
	}
}

func TestSolveSquareErrors(t *testing.T) {
	if _, err := SolveSquare(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square should error")
	}
	if _, err := SolveSquare(New(2, 2), []float64{1}); err == nil {
		t.Fatal("rhs length mismatch should error")
	}
	sing, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveSquare(sing, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular system should return ErrSingular, got %v", err)
	}
}

func TestSolveSquareRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		a := randomMatrix(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b, _ := a.MulVec(xTrue)
		x, err := SolveSquare(a, b)
		if err != nil {
			// Random Gaussian matrices are almost surely non-singular; treat
			// failure as a real error.
			t.Fatalf("trial %d: SolveSquare: %v", trial, err)
		}
		if !VecEqual(x, xTrue, 1e-7) {
			t.Fatalf("trial %d: solution %v != %v", trial, x, xTrue)
		}
	}
}
