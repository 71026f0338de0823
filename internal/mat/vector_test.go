package mat

import (
	"math"
	"testing"
)

func TestAxpyScaleSubAdd(t *testing.T) {
	if got := AddVec([]float64{5, 5}, []float64{2, 3}); !VecEqual(got, []float64{7, 8}, 0) {
		t.Fatalf("AddVec = %v", got)
	}
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
