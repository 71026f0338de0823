package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSVDKnownMatrix(t *testing.T) {
	// A = [[3,0],[0,-2]] has singular values 3 and 2.
	a, _ := NewFromRows([][]float64{{3, 0}, {0, -2}})
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatalf("ComputeSVD: %v", err)
	}
	if math.Abs(svd.S[0]-3) > 1e-10 || math.Abs(svd.S[1]-2) > 1e-10 {
		t.Fatalf("singular values = %v, want [3 2]", svd.S)
	}
}

func TestSVDDiagonalRectangular(t *testing.T) {
	a := New(5, 3)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	a.Set(2, 2, 1)
	s, err := SingularValues(a)
	if err != nil {
		t.Fatalf("SingularValues: %v", err)
	}
	want := []float64{4, 2, 1}
	if !vecEqual(s, want, 1e-10) {
		t.Fatalf("singular values = %v, want %v", s, want)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][2]int{{5, 2}, {2, 5}, {6, 4}, {4, 4}, {10, 3}, {3, 10}, {1, 4}, {4, 1}}
	for _, sh := range shapes {
		a := randomMatrix(rng, sh[0], sh[1])
		svd, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("ComputeSVD(%dx%d): %v", sh[0], sh[1], err)
		}
		// U·diag(S)·Vᵀ.
		us := svd.U.Clone()
		for i := range us.Rows() {
			for j, s := range svd.S {
				us.Set(i, j, us.At(i, j)*s)
			}
		}
		rec, err := us.Mul(svd.V.T())
		if err != nil {
			t.Fatalf("U·S·Vᵀ: %v", err)
		}
		if !equal(rec, a, 1e-8) {
			t.Fatalf("U S V^T != A for shape %v", sh)
		}
		// Singular values must be sorted descending and non-negative.
		for i := range svd.S {
			if svd.S[i] < 0 {
				t.Fatalf("negative singular value %v", svd.S[i])
			}
			if i > 0 && svd.S[i] > svd.S[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", svd.S)
			}
		}
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomMatrix(rng, 8, 4)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatalf("ComputeSVD: %v", err)
	}
	utU, _ := svd.U.T().Mul(svd.U)
	if !equal(utU, Identity(4), 1e-8) {
		t.Fatal("U columns are not orthonormal")
	}
	vtV, _ := svd.V.T().Mul(svd.V)
	if !equal(vtV, Identity(4), 1e-8) {
		t.Fatal("V columns are not orthonormal")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Two identical columns: rank 1, second singular value ~0.
	col := []float64{1, 2, 3, 4, 5}
	a, _ := NewFromColumns(col, col)
	s, err := SingularValues(a)
	if err != nil {
		t.Fatalf("SingularValues: %v", err)
	}
	if s[1] > 1e-10 {
		t.Fatalf("second singular value = %v, want ~0", s[1])
	}
	r, err := Rank(a, 0)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if r != 1 {
		t.Fatalf("Rank = %d, want 1", r)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := New(4, 2)
	s, err := SingularValues(a)
	if err != nil {
		t.Fatalf("SingularValues: %v", err)
	}
	if s[0] != 0 || s[1] != 0 {
		t.Fatalf("zero matrix singular values = %v", s)
	}
	r, err := Rank(a, 0)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if r != 0 {
		t.Fatalf("Rank of zero matrix = %d, want 0", r)
	}
}

func TestSVDEmptyMatrixErrors(t *testing.T) {
	if _, err := ComputeSVD(New(0, 3)); err == nil {
		t.Fatal("SVD of empty matrix should error")
	}
	if _, err := ComputeSVD(New(3, 0)); err == nil {
		t.Fatal("SVD of empty matrix should error")
	}
}

// Property: singular values of A equal the square roots of the eigenvalues of
// AᵀA; we check the weaker but sufficient property that the sum of squared
// singular values equals the squared Frobenius norm.
func TestSVDFrobeniusProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(8)
		cols := 1 + rng.Intn(5)
		a := randomMatrix(rng, rows, cols)
		s, err := SingularValues(a)
		if err != nil {
			return false
		}
		var sumSq float64
		for _, v := range s {
			sumSq += v * v
		}
		fro := frobeniusNorm(a)
		return math.Abs(sumSq-fro*fro) <= 1e-8*(1+fro*fro)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRankFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 6, 3)
	r, err := Rank(a, 0)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if r != 3 {
		t.Fatalf("random Gaussian 6x3 should have rank 3, got %d", r)
	}
}
