package lsfd

import (
	"math"
	"testing"

	"affinity/internal/mat"
)

func constantPair(v float64, m int) *mat.Matrix {
	a := mat.New(m, 2)
	for i := 0; i < m; i++ {
		a.Set(i, 0, v)
		a.Set(i, 1, v)
	}
	return a
}

// TestConstantSeries pins the degenerate-input behavior: constant columns
// center to zero, so any pair involving a constant matrix spans rank ≤ 2 and
// its LSFD is exactly zero — a constant series is affinely dependent on
// everything, matching the engine's treatment of zero-variance series as
// trivially fit by an affine relationship.
func TestConstantSeries(t *testing.T) {
	varied, _ := mat.NewFromColumns(
		[]float64{1, -2, 3, 0.5, -1, 4, 2, -3},
		[]float64{0, 1, -1, 2, -2, 0.5, 3, 1})
	for _, tc := range []struct {
		name string
		x, y *mat.Matrix
	}{
		{"const-const", constantPair(3, 8), constantPair(-1, 8)},
		{"zero-zero", constantPair(0, 8), constantPair(0, 8)},
		{"const-varied", constantPair(7, 8), varied},
		{"varied-const", varied, constantPair(7, 8)},
	} {
		d, err := Distance(tc.x, tc.y)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d != 0 {
			t.Fatalf("%s: LSFD = %v, want exactly 0", tc.name, d)
		}
	}
}

// TestConstantCenter covers a pivot pair whose center has zero variance.
func TestConstantCenter(t *testing.T) {
	common := []float64{1, 2, 3, 4, 5}
	other := []float64{5, 3, 1, 4, 2}
	center := []float64{2, 2, 2, 2, 2}
	d, err := Distance(pivotPairs(t, common, other, center))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d) || d < 0 {
		t.Fatalf("distance to constant center = %v", d)
	}
}

// TestMinimalRows: with m = 2 rows the concatenation has rank ≤ 2, so λ3 and
// λ4 vanish and every pair is at distance zero — the smallest shape the
// validator admits never fabricates a positive distance.
func TestMinimalRows(t *testing.T) {
	x, _ := mat.NewFromColumns([]float64{1, 2}, []float64{3, 4})
	y, _ := mat.NewFromColumns([]float64{-5, 7}, []float64{0, 11})
	d, err := Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("m=2 LSFD = %v, want 0", d)
	}
}

// TestNaNPropagation pins the zero-normalizer convention: a NaN anywhere in
// either argument yields a NaN distance (no error, no silently finite
// answer), symmetrically — the regression this guards is the SVD converging
// to 0 on a NaN in the first argument only.
func TestNaNPropagation(t *testing.T) {
	clean := constantPair(1, 6)
	for _, pos := range []struct{ i, j int }{{0, 0}, {3, 1}, {5, 0}} {
		dirty := constantPair(2, 6)
		dirty.Set(pos.i, pos.j, math.NaN())
		for name, args := range map[string][2]*mat.Matrix{
			"nan-first":  {dirty, clean},
			"nan-second": {clean, dirty},
			"nan-both":   {dirty, dirty},
		} {
			d, err := Distance(args[0], args[1])
			if err != nil {
				t.Fatalf("%s at (%d,%d): unexpected error %v", name, pos.i, pos.j, err)
			}
			if !math.IsNaN(d) {
				t.Fatalf("%s at (%d,%d): LSFD = %v, want NaN", name, pos.i, pos.j, d)
			}
			d2, err := SquaredDistance(args[0], args[1])
			if err != nil || !math.IsNaN(d2) {
				t.Fatalf("%s at (%d,%d): SquaredDistance = %v, %v, want NaN", name, pos.i, pos.j, d2, err)
			}
		}
	}
}
