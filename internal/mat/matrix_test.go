package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 2)
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims() = (%d,%d), want (3,2)", r, c)
	}
	m.Set(1, 1, 4.5)
	if got := m.At(1, 1); got != 4.5 {
		t.Fatalf("At(1,1) = %v, want 4.5", got)
	}
	m.Add(1, 1, 0.5)
	if got := m.At(1, 1); got != 5 {
		t.Fatalf("after Add, At(1,1) = %v, want 5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero-initialized element = %v, want 0", got)
	}
}

func TestNewFromRowsAndColumns(t *testing.T) {
	fromRows, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	fromCols, err := NewFromColumns([]float64{1, 3, 5}, []float64{2, 4, 6})
	if err != nil {
		t.Fatalf("NewFromColumns: %v", err)
	}
	if !equal(fromRows, fromCols, 0) {
		t.Fatalf("row and column construction disagree:\n%v\n%v", fromRows, fromCols)
	}

	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows should error")
	}
	if _, err := NewFromColumns([]float64{1, 2}, []float64{3}); err == nil {
		t.Fatal("ragged columns should error")
	}
}

func TestRowColCopySemantics(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must return a copy")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims (%d,%d), want (3,2)", r, c)
	}
	if mt.At(2, 1) != 6 {
		t.Fatalf("T()[2,1] = %v, want 6", mt.At(2, 1))
	}
	if !equal(m.T().T(), m, 0) {
		t.Fatal("double transpose should be identity")
	}
}

func TestMul(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	ab, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !equal(ab, want, 1e-12) {
		t.Fatalf("a*b = %v, want %v", ab, want)
	}

	id := Identity(2)
	ai, _ := a.Mul(id)
	if !equal(ai, a, 0) {
		t.Fatal("A*I should equal A")
	}

	if _, err := a.Mul(New(3, 3)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestHConcatAndSlice(t *testing.T) {
	a, _ := NewFromColumns([]float64{1, 2, 3})
	b, _ := NewFromColumns([]float64{4, 5, 6}, []float64{7, 8, 9})
	ab, err := a.HConcat(b)
	if err != nil {
		t.Fatalf("HConcat: %v", err)
	}
	if r, c := ab.Dims(); r != 3 || c != 3 {
		t.Fatalf("HConcat dims (%d,%d)", r, c)
	}
	if ab.At(2, 2) != 9 {
		t.Fatalf("HConcat[2,2] = %v", ab.At(2, 2))
	}
	sub, err := ab.Slice(1, 3, 1, 3)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	want, _ := NewFromRows([][]float64{{5, 8}, {6, 9}})
	if !equal(sub, want, 0) {
		t.Fatalf("Slice = %v, want %v", sub, want)
	}
	if _, err := a.HConcat(New(2, 1)); err == nil {
		t.Fatal("HConcat with mismatched rows should error")
	}
	if _, err := ab.Slice(0, 4, 0, 1); err == nil {
		t.Fatal("out-of-range slice should error")
	}
}

func TestFrobeniusNormAndMaxAbs(t *testing.T) {
	a, _ := NewFromRows([][]float64{{3, 0}, {0, -4}})
	if got := frobeniusNorm(a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius norm = %v, want 5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := New(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("empty MaxAbs = %v, want 0", got)
	}
}

func TestColumnMeansAndCenter(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 10}, {3, 20}, {5, 30}})
	means := a.ColumnMeans()
	if !vecEqual(means, []float64{3, 20}, 1e-12) {
		t.Fatalf("ColumnMeans = %v", means)
	}
	centered := a.CenterColumns()
	if !vecEqual(centered.ColumnMeans(), []float64{0, 0}, 1e-12) {
		t.Fatalf("centered means = %v, want zeros", centered.ColumnMeans())
	}
	// Original must be untouched.
	if a.At(0, 0) != 1 {
		t.Fatal("CenterColumns must not mutate the receiver")
	}
}

func TestCloneIsolation(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := New(20, 20)
	s := big.String()
	if s == "" {
		t.Fatal("String() should produce output")
	}
	small, _ := NewFromRows([][]float64{{1}})
	if small.String() == "" {
		t.Fatal("String() should produce output for small matrices")
	}
}

func TestOnesIdentity(t *testing.T) {
	ones := Ones(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if ones.At(i, j) != 1 {
				t.Fatal("Ones should be all 1")
			}
		}
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestBoundsPanics(t *testing.T) {
	m := New(2, 2)
	assertPanics(t, func() { m.At(2, 0) }, "At out of range")
	assertPanics(t, func() { m.Set(0, 2, 1) }, "Set out of range")
	assertPanics(t, func() { m.Col(5) }, "Col out of range")
	assertPanics(t, func() { New(-1, 2) }, "negative dimension")
}

func assertPanics(t *testing.T, f func(), msg string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", msg)
		}
	}()
	f()
}

// randomMatrix builds a deterministic pseudo-random matrix for tests.
func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMulAssociativityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 4, 3)
		b := randomMatrix(rng, 3, 5)
		c := randomMatrix(rng, 5, 2)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		if !equal(abc1, abc2, 1e-9) {
			t.Fatalf("trial %d: (AB)C != A(BC)", trial)
		}
	}
}

func TestTransposeOfProductRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 4, 3)
		b := randomMatrix(rng, 3, 4)
		ab, _ := a.Mul(b)
		left := ab.T()
		right, _ := b.T().Mul(a.T())
		if !equal(left, right, 1e-9) {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}

// equal reports whether two matrices have the same shape and all elements are
// within tol of each other.
func equal(a, b *Matrix, tol float64) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	return ar == br && ac == bc && vecEqual(a.RawData(), b.RawData(), tol)
}

// vecEqual reports whether two vectors have the same length and all elements
// are within tol of each other.
func vecEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Abs(v-b[i]) > tol {
			return false
		}
	}
	return true
}

// frobeniusNorm returns the Frobenius norm of a.
func frobeniusNorm(a *Matrix) float64 {
	var ssq float64
	for _, v := range a.RawData() {
		ssq += v * v
	}
	return math.Sqrt(ssq)
}
