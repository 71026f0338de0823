package measure_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// The tiled pivot-moment reductions promise the bits of the scalar routes
// they replaced: stats.NewRunningPairFrom (the joint sums behind the pivot
// summaries and the calibration) and measure.CovarianceOf / DotProductOf (the
// index's α terms).  These tests hold them to it on finite data that walks the
// edges of float64.

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
	// The self-moments the engine pairs the cross terms with: the memoised
	// reduction of a window's (or a clustering's) columns.
	self := timeseries.NewMoments(append([][]float64{x}, ys...))
	sumX, sqX := self.Sum[0], self.SqNorm[0]
	same := func(got, want float64) bool {
		// The products of 1e±150 samples overflow to ±Inf and their sums to
		// NaN; which NaN is not part of the contract.
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	for c, y := range ys {
		rp, err := stats.NewRunningPairFrom(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sumY, sqY := self.Sum[1+c], self.SqNorm[1+c]
		from := stats.RunningPairFromSums(m, sumX, sumY, sqX, sqY, dotOnly[c])
		if !same(from.Sums()[0], rp.Sums()[0]) || !same(from.Sums()[1], rp.Sums()[1]) ||
			!same(from.VarianceX(), rp.VarianceX()) || !same(from.VarianceY(), rp.VarianceY()) ||
			!same(from.DotProduct(), rp.DotProduct()) || !same(from.Covariance(), rp.Covariance()) ||
			from.Count() != rp.Count() {
			t.Fatalf("m=%d, %d centres, centre %d: joint sums %+v, NewRunningPairFrom %+v", m, len(ys), c, from, rp)
		}
		if gx, gy := from.GramMatrix(), rp.GramMatrix(); !same(gx.At(0, 0), gy.At(0, 0)) || !same(gx.At(1, 1), gy.At(1, 1)) {
			t.Fatalf("m=%d, %d centres, centre %d: Σx², Σy² differ from NewRunningPairFrom", m, len(ys), c)
		}
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
	if sum := measure.SumOf(x); !same(sumX, sum) {
		t.Fatalf("m=%d: memoised sum %v, SumOf %v", m, sumX, sum)
	}
	if sq, _ := measure.DotProductOf(x, x); !same(sqX, sq) {
		t.Fatalf("m=%d: memoised sqNorm %v, DotProductOf(x, x) %v", m, sqX, sq)
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
