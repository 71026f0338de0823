package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/measure"
)

// scaledColumns draws count columns of m normals in which, by index mod 4
// plus shift, a column is left as it is, constant, scaled by 2^500 or by
// 2^−500.
func scaledColumns(rng *rand.Rand, count, m, shift int) [][]float64 {
	cols := make([][]float64, count)
	for c := range cols {
		cols[c] = make([]float64, m)
		for j := range cols[c] {
			x := rng.NormFloat64()*10 + float64(c)
			switch (c + shift) % 4 {
			case 1:
				x = 42
			case 2:
				x = math.Ldexp(x, 500)
			case 3:
				x = math.Ldexp(x, -500)
			}
			cols[c][j] = x
		}
	}
	return cols
}

func meansOf(t testing.TB, cols [][]float64) []float64 {
	t.Helper()
	means := make([]float64, len(cols))
	for c, col := range cols {
		var err error
		if means[c], err = measure.MeanOf(col); err != nil {
			t.Fatal(err)
		}
	}
	return means
}

// TestCrossPanelMatchesScalar holds the series × centre cross pass to
// measure.DotProductOf and CovarianceOf bit for bit, on both micro-kernel
// routes: K from 1 to 9 centres (every panel width and padding) and 17 (a
// second panel), windows of 1 sample (the zero-covariance rule) to 720, rows
// and centres that are constant or 2^±500-scaled, at several worker counts.
func TestCrossPanelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const n = 7 // a short last row tile
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
		for _, m := range []int{1, 2, 3, 7, 360, 720} {
			rows, cols := scaledColumns(rng, n, m, 0), scaledColumns(rng, k, m, k)
			rowMeans, colMeans := meansOf(t, rows), meansOf(t, cols)
			wantDot, wantCov := make([]float64, n*k), make([]float64, n*k)
			for u, x := range rows {
				for l, y := range cols {
					var err error
					if wantDot[u*k+l], err = measure.DotProductOf(x, y); err != nil {
						t.Fatal(err)
					}
					if wantCov[u*k+l], err = measure.CovarianceOf(x, y); err != nil {
						t.Fatal(err)
					}
				}
			}
			forEachRoute(t, func(route string) {
				for _, p := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s: K=%d m=%d P=%d", route, k, m, p)
					dot, cov := make([]float64, n*k), make([]float64, n*k)
					if err := CrossPanel(rows, rowMeans, cols, colMeans, dot, cov, p); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i := range dot {
						if !sameBits(dot[i], wantDot[i]) {
							t.Fatalf("%s: series %d, centre %d: dot %x, DotProductOf %x", label, i/k, i%k, math.Float64bits(dot[i]), math.Float64bits(wantDot[i]))
						}
						if !sameBits(cov[i], wantCov[i]) {
							t.Fatalf("%s: series %d, centre %d: cov %x, CovarianceOf %x", label, i/k, i%k, math.Float64bits(cov[i]), math.Float64bits(wantCov[i]))
						}
					}
				}
			})
		}
	}
}

// FuzzMicroKernelRoutes holds every micro-kernel route to the scalar loop —
// one accumulator per (row, column), the rounded product added in sample
// order — bit for bit, NaN for NaN, so the routes agree with one another: any
// panel width, windows up to 1024 samples, and samples that walk the edges of
// float64 (±0, 2^±500, denormals, ±Inf and NaN).
func FuzzMicroKernelRoutes(f *testing.F) {
	for i, m := range []uint16{0, 1, 2, 7, 360, 720} {
		f.Add(int64(i)+1, m, uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, m uint16, width, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		length := int(m) % 1025
		w := 4 * (1 + int(width)%4)
		sample := func() float64 {
			x := rng.NormFloat64()
			switch (int(kind) + rng.Intn(3)) % 8 {
			case 1:
				x = math.Ldexp(x, 500)
			case 2:
				x = math.Ldexp(x, -500)
			case 3:
				x = math.Float64frombits(uint64(rng.Int63n(1 << 52))) // denormal
			case 4:
				x = math.Copysign(0, x)
			case 5:
				if rng.Intn(64) == 0 {
					x = [3]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
				}
			}
			return x
		}
		column := func() []float64 {
			col := make([]float64, length)
			for j := range col {
				col[j] = sample()
			}
			return col
		}
		x := [tileRows][]float64{column(), column(), column()}
		ys := make([][]float64, w)
		for c := range ys {
			ys[c] = column()
		}
		var want [tileRows][panelWidth]float64
		for i := range x {
			for c, y := range ys {
				var s float64
				for j, a := range x[i] {
					s += a * y[j]
				}
				want[i][c] = s
			}
		}
		forEachRoute(t, func(route string) {
			var got [tileRows][panelWidth]float64
			for i := range got {
				for c := range got[i] {
					got[i][c] = math.NaN() // every entry must be written
				}
			}
			panel := make([]float64, w*length)
			for c, y := range ys {
				pack(panel, length, c, y, 0)
			}
			micro(&x, panel, w, &got)
			for i := range got {
				for c := range got[i] {
					if !sameBits(got[i][c], want[i][c]) {
						t.Fatalf("%s: m=%d width %d: out[%d][%d] = %x, scalar loop %x",
							route, length, w, i, c, math.Float64bits(got[i][c]), math.Float64bits(want[i][c]))
					}
				}
			}
		})
	})
}
