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
	if !equal(prod, Identity(2), 1e-9) {
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
	if !equal(prod, Identity(3), 1e-8) {
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
		if !equal(apa, a, tol) { // A A+ A = A
			return false
		}
		pap, _ := p.Mul(a)
		pap, _ = pap.Mul(p)
		if !equal(pap, p, tol) { // A+ A A+ = A+
			return false
		}
		ap, _ := a.Mul(p)
		if !equal(ap, ap.T(), tol) { // (A A+) symmetric
			return false
		}
		pa, _ := p.Mul(a)
		return equal(pa, pa.T(), tol) // (A+ A) symmetric
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
	if !equal(apa, a, 1e-8) {
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
