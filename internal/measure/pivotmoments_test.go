package measure_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// The tiled pivot-moment reductions promise the bits of the scalar primitives
// they stand in for: measure.CovarianceOf and DotProductOf for the cross terms
// of the pivot terms and the calibration, and — for the self-moments they are
// paired with, memoised by timeseries.NewMoments — SumOf, VarianceOf and
// DotProductOf(x, x).  These tests hold them to it on finite data that walks
// the edges of float64.

// hostileColumn draws m finite samples of one of seven kinds: a constant,
// plain normals, ±0 among normals, magnitudes near 1e+150 and near 1e−150,
// denormals, and a mix of them all.
func hostileColumn(rng *rand.Rand, kind, m int) []float64 {
	col := make([]float64, m)
	for j := range col {
		x := rng.NormFloat64()*10 + float64(kind)
		k := kind % 7
		if k == 6 {
			k = rng.Intn(6)
		}
		switch k {
		case 0:
			x = 42
		case 2:
			if rng.Intn(3) == 0 {
				x = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		case 3:
			x *= 1e150
		case 4:
			x *= 1e-150
		case 5:
			x = math.Float64frombits(uint64(rng.Int63n(1<<52))) * float64(rng.Intn(2)*2-1) // denormal
		}
		col[j] = x
	}
	return col
}

func meanOf(t testing.TB, x []float64) float64 {
	t.Helper()
	mean, err := measure.MeanOf(x)
	if err != nil {
		t.Fatal(err)
	}
	return mean
}

// requireCrossMomentParity reduces x against ys both ways — inner products
// only, and with the covariances — and compares every output with the scalar
// routes by Float64bits.
func requireCrossMomentParity(t testing.TB, x []float64, ys [][]float64) {
	t.Helper()
	m := len(x)
	mx := meanOf(t, x)
	mys := make([]float64, len(ys))
	for c, y := range ys {
		mys[c] = meanOf(t, y)
	}
	dotOnly := make([]float64, len(ys))
	if err := measure.CrossMoments(x, 0, ys, nil, dotOnly, nil); err != nil {
		t.Fatal(err)
	}
	dot, cov := make([]float64, len(ys)), make([]float64, len(ys))
	if err := measure.CrossMoments(x, mx, ys, mys, dot, cov); err != nil {
		t.Fatal(err)
	}
	same := func(got, want float64) bool {
		// The products of 1e±150 samples overflow to ±Inf and their sums to
		// NaN; which NaN is not part of the contract.
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	for c, y := range ys {
		wantDot, err := measure.DotProductOf(x, y)
		if err != nil {
			t.Fatal(err)
		}
		wantCov, err := measure.CovarianceOf(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !same(dot[c], wantDot) || !same(dotOnly[c], wantDot) {
			t.Fatalf("m=%d, %d centres, centre %d: dot %x / %x, DotProductOf %x", m, len(ys), c,
				math.Float64bits(dot[c]), math.Float64bits(dotOnly[c]), math.Float64bits(wantDot))
		}
		if !same(cov[c], wantCov) {
			t.Fatalf("m=%d, %d centres, centre %d: cov %x, CovarianceOf %x", m, len(ys), c,
				math.Float64bits(cov[c]), math.Float64bits(wantCov))
		}
	}
	// The self-moments the engine pairs the cross terms with: the memoised
	// reduction of a window's (or a clustering's) columns.
	cols := append([][]float64{x}, ys...)
	self := timeseries.NewMoments(cols)
	for c, col := range cols {
		variance, err := measure.VarianceOf(col)
		if err != nil {
			t.Fatal(err)
		}
		sq, err := measure.DotProductOf(col, col)
		if err != nil {
			t.Fatal(err)
		}
		if !same(self.Sum[c], measure.SumOf(col)) || !same(self.Mean[c], meanOf(t, col)) ||
			!same(self.Variance[c], variance) || !same(self.SqNorm[c], sq) {
			t.Fatalf("m=%d, column %d: memoised moments (%v, %v, %v, %v), scalar primitives (%v, %v, %v, %v)", m, c,
				self.Sum[c], self.Mean[c], self.Variance[c], self.SqNorm[c], measure.SumOf(col), meanOf(t, col), variance, sq)
		}
	}
}

// TestCrossMomentsBitIdentical: 1–7 centres per series (every tile width with
// every tail), the window lengths the kernels are pinned at, every kind of
// hostile column on either side.
func TestCrossMomentsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 2, 3, 7, 137, 360} {
		for centres := 1; centres <= 7; centres++ {
			for kind := 0; kind < 7; kind++ {
				x := hostileColumn(rng, kind, m)
				ys := make([][]float64, centres)
				for c := range ys {
					ys[c] = hostileColumn(rng, kind+c, m)
				}
				requireCrossMomentParity(t, x, ys)
			}
		}
	}
}

// FuzzPivotMomentParity probes the same contract on generated shapes.
func FuzzPivotMomentParity(f *testing.F) {
	for i, m := range []uint16{1, 2, 3, 7, 137, 360} {
		f.Add(int64(i)+1, m, uint8(i+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, m uint16, centres, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		length := 1 + int(m)%512
		x := hostileColumn(rng, int(kind), length)
		ys := make([][]float64, 1+int(centres)%7)
		for c := range ys {
			ys[c] = hostileColumn(rng, int(kind)+c+rng.Intn(7), length)
		}
		requireCrossMomentParity(t, x, ys)
	})
}

func TestCrossMomentsErrors(t *testing.T) {
	x := []float64{1, 2, 3}
	out := make([]float64, 2)
	for _, withCov := range []bool{false, true} {
		cov := []float64(nil)
		if withCov {
			cov = make([]float64, 2)
		}
		if err := measure.CrossMoments(nil, 0, [][]float64{x}, out, out, cov); !errors.Is(err, measure.ErrEmptyInput) {
			t.Fatalf("empty window: %v, want ErrEmptyInput", err)
		}
		if err := measure.CrossMoments(x, 2, [][]float64{x, {1, 2}}, out, out, cov); !errors.Is(err, measure.ErrLengthMismatch) {
			t.Fatalf("centre of another length: %v, want ErrLengthMismatch", err)
		}
		if err := measure.CrossMoments(x, 2, [][]float64{x, {}}, out, out, cov); !errors.Is(err, measure.ErrEmptyInput) {
			t.Fatalf("empty centre: %v, want ErrEmptyInput", err)
		}
		// No centre at all is no work.
		if err := measure.CrossMoments(x, 2, nil, nil, nil, cov); err != nil {
			t.Fatalf("no centre: %v", err)
		}
	}
}
