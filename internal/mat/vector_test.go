package mat

import (
	"math"
	"testing"
)

func TestVecEqualAndHasNaN(t *testing.T) {
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
