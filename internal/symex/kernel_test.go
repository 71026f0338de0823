package symex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/mat"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// oracleFit is the generic route the kernels replace: design matrix,
// mat.PseudoInverse, affine.FitWithPseudoInverse.  It returns the 3×m
// pseudo-inverse and the fitted transform, its first column canonical.
func oracleFit(t testing.TB, common, centre, other []float64) (*mat.Matrix, *affine.Transform) {
	t.Helper()
	source, err := mat.NewFromColumns(common, centre)
	if err != nil {
		t.Fatal(err)
	}
	design, err := affine.DesignMatrix(source)
	if err != nil {
		t.Fatal(err)
	}
	pinv, err := mat.PseudoInverse(design)
	if err != nil {
		t.Fatal(err)
	}
	target, err := mat.NewFromColumns(common, other)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := affine.FitWithPseudoInverse(pinv, target)
	if err != nil {
		t.Fatal(err)
	}
	return pinv, canonical(tr)
}

// canonical sets a generic fit's first column to the exact solution (1, 0, 0)
// for s_common that the kernel and the moment form return, where the generic
// route reads the pseudo-inverse's (minimum-norm on a rank-deficient design).
func canonical(tr *affine.Transform) *affine.Transform {
	tr.A[0][0], tr.A[1][0], tr.B[0] = 1, 0, 0
	return tr
}

func transformBits(tr affine.Transform) [6]uint64 {
	return [6]uint64{
		math.Float64bits(tr.A[0][0]), math.Float64bits(tr.A[0][1]),
		math.Float64bits(tr.A[1][0]), math.Float64bits(tr.A[1][1]),
		math.Float64bits(tr.B[0]), math.Float64bits(tr.B[1]),
	}
}

// checkKernelParity requires the kernels' pseudo-inverse rows and transform
// to carry exactly the oracle's bits.
func checkKernelParity(t testing.TB, k *pivotFit, common, centre, other []float64) {
	t.Helper()
	pinv, want := oracleFit(t, common, centre, other)
	k.setPivot(common, centre)
	m := len(common)
	for i, row := range k.rows {
		if len(row) != m {
			t.Fatalf("row %d has %d entries, want %d", i, len(row), m)
		}
		for c, got := range row {
			if math.Float64bits(got) != math.Float64bits(pinv.At(i, c)) {
				t.Fatalf("m=%d: pinv[%d][%d] = %v (%#x), oracle %v (%#x)", m, i, c,
					got, math.Float64bits(got), pinv.At(i, c), math.Float64bits(pinv.At(i, c)))
			}
		}
	}
	if got := k.fit(other); transformBits(got) != transformBits(*want) {
		t.Fatalf("m=%d: transform %v, oracle %v", m, got, want)
	}
}

func normals(rng *rand.Rand, m int, scale float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = scale * rng.NormFloat64()
	}
	return out
}

func constant(m int, v float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestFitKernelParity pins the matrix-free kernels to the generic mat/affine
// route bit for bit, over the window lengths that select each code path
// (m=2 decomposes the transpose), well-conditioned and rank-deficient
// designs, extreme magnitudes, and pseudo-inverse rows holding exact zeros.
func TestFitKernelParity(t *testing.T) {
	for _, m := range []int{2, 3, 90, 720} {
		rng := rand.New(rand.NewSource(int64(m)))
		random := func() []float64 { return normals(rng, m, 1) }
		spike := make([]float64, m) // zero but for one sample: rows keep exact zeros
		spike[m/2] = 3
		ramp := make([]float64, m)
		for i := range ramp {
			ramp[i] = float64(i)
		}
		shared := random()
		cases := []struct {
			name                  string
			common, centre, other []float64
		}{
			{"random", random(), random(), random()},
			{"correlated", shared, scaled(shared, 0.7, 0.1, rng), scaled(shared, -1.3, 0.2, rng)},
			{"exact zeros", spike, constant(m, 0), random()},
			{"all zero design", constant(m, 0), constant(m, 0), random()},
			{"constant common", constant(m, 4.5), random(), random()},
			{"centre proportional to one", random(), constant(m, -2), random()},
			{"common equals centre", shared, shared, random()},
			{"common and centre constant", constant(m, 1), constant(m, 1), ramp},
			{"integers", ramp, constant(m, 1), ramp},
			{"huge", normals(rng, m, 1e150), normals(rng, m, 1e150), normals(rng, m, 1e150)},
			{"tiny", normals(rng, m, 1e-150), normals(rng, m, 1e-150), normals(rng, m, 1e-150)},
			{"mixed magnitudes", normals(rng, m, 1e150), normals(rng, m, 1e-150), random()},
			{"other is common", shared, random(), shared},
		}
		k := new(pivotFit)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("m=%d/%s", m, tc.name), func(t *testing.T) {
				checkKernelParity(t, k, tc.common, tc.centre, tc.other)
			})
		}
	}
}

// TestFitKernelScratchReuse runs one scratch over pivots of changing window
// length and conditioning: nothing of an earlier pivot may leak into a later
// one.
func TestFitKernelScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	k := new(pivotFit)
	for _, m := range []int{40, 2, 40, 3, 720, 2, 90} {
		checkKernelParity(t, k, normals(rng, m, 1), normals(rng, m, 1), normals(rng, m, 1))
		checkKernelParity(t, k, constant(m, 2), constant(m, 2), normals(rng, m, 1))
	}
}

func scaled(x []float64, a, noise float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = a*v + noise*rng.NormFloat64()
	}
	return out
}

// FuzzFitKernelParity decodes three equally long finite columns from the
// input and requires kernel-vs-oracle bit equality on them.
func FuzzFitKernelParity(f *testing.F) {
	seed := func(cols ...[]float64) {
		var b []byte
		for i := range cols[0] {
			for _, col := range cols {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col[i]))
			}
		}
		f.Add(b)
	}
	seed([]float64{1, 2}, []float64{3, 5}, []float64{-1, 4})
	seed([]float64{1, 2, 3}, []float64{1, 1, 1}, []float64{2, 4, 6})
	seed([]float64{0, 0, 0, 7}, []float64{0, 0, 0, 0}, []float64{1, -1, 1, -1})
	seed([]float64{1e150, -1e150, 3e149}, []float64{1e-150, 2e-150, 0}, []float64{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := len(data) / 24
		if m < 2 {
			return
		}
		if m > 64 {
			m = 64
		}
		cols := [3][]float64{make([]float64, m), make([]float64, m), make([]float64, m)}
		for i := 0; i < m; i++ {
			for j := range cols {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[(3*i+j)*8:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return // DataMatrix.Validate rejects non-finite samples
				}
				cols[j][i] = v
			}
		}
		checkKernelParity(t, new(pivotFit), cols[0], cols[1], cols[2])
	})
}

// fitOne fits the one relationship of a two-series window through Refit: the
// other series regressed on [common, centre, 1_m].  Unless ownCentre is set,
// the other series belongs to a second cluster, so centre is not its own.
func fitOne(t testing.TB, common, centre, other []float64, ownCentre bool) (affine.Transform, RefitStats) {
	t.Helper()
	d, err := timeseries.NewDataMatrix([][]float64{common, other})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(2, []Assignment{{Pair: timeseries.Pair{U: 0, V: 1}, Pivot: Pivot{Common: 0, Cluster: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	clustering := &cluster.Result{Centers: [][]float64{centre, other}, Assignment: []int{0, 1}}
	if ownCentre {
		clustering.Assignment[1] = 0
	}
	res, rs, err := Refit(d, NewResult(layout, clustering, make([]*Relationship, 1)), RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.At(0).Transform, rs
}

// FuzzMomentFitParity decodes three equally long finite columns like
// FuzzFitKernelParity and fits the one relationship they form — common series,
// centre, other series — through Refit.  Where the exactness guard admits the
// pivot the transform carries momentOracle's bits (which pins the reductions'
// and the solve's operation order) and, on columns whose spread stays well
// inside the float range and above the rounding of their means, keeps the
// exact canonical first column and lies within requireWithinFitBound of the
// exact fit; everywhere else it carries the kernel's bits.
func FuzzMomentFitParity(f *testing.F) {
	seed := func(cols ...[]float64) {
		var b []byte
		for i := range cols[0] {
			for _, col := range cols {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col[i]))
			}
		}
		f.Add(b)
	}
	seed([]float64{1, 2, 4}, []float64{3, 5, 4}, []float64{-1, 4, 0})
	seed([]float64{1, 2, 3}, []float64{1, 1, 1}, []float64{2, 4, 6})
	seed([]float64{0, 0, 0, 7}, []float64{0, 0, 1, 0}, []float64{1, -1, 1, -1})
	seed([]float64{1e150, -1e150, 3e149}, []float64{1e-150, 2e-150, 0}, []float64{1, 2, 3})
	seed([]float64{100.1, 100.3, 99.8, 100.2}, []float64{0.4, 0.6, 0.5, 0.48}, []float64{7, 7.5, 6.4, 7.3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := len(data) / 24
		if m < 2 {
			return
		}
		if m > 64 {
			m = 64
		}
		cols := [3][]float64{make([]float64, m), make([]float64, m), make([]float64, m)}
		for i := 0; i < m; i++ {
			for j := range cols {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[(3*i+j)*8:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return // DataMatrix.Validate rejects non-finite samples
				}
				cols[j][i] = v
			}
		}
		common, centre, other := cols[0], cols[1], cols[2]
		got, rs := fitOne(t, common, centre, other, true)
		want, ok := momentOracle(common, centre, other)
		if !ok {
			if _, kernel := oracleFit(t, common, centre, other); transformBits(got) != transformBits(*kernel) || rs.PivotInverses != 1 {
				t.Fatalf("guarded pivot: transform %v (%d pseudo-inverses), kernel %v", got, rs.PivotInverses, kernel)
			}
			return
		}
		if transformBits(got) != transformBits(*want) || rs.PivotInverses != 0 {
			t.Fatalf("moment form: transform %v (%d pseudo-inverses), oracle %v", got, rs.PivotInverses, want)
		}
		for _, col := range cols {
			v, _ := measure.VarianceOf(col)
			mean, _ := measure.MeanOf(col)
			for _, x := range col {
				if x != 0 && (math.Abs(x) > 0x1p300 || math.Abs(x) < 0x1p-300) {
					return
				}
			}
			if floor := 16 * float64(m) * 0x1p-52 * mean; !(v > floor*floor) || !(v > 0x1p-600) {
				return
			}
		}
		requireWithinFitBound(t, "moment form", common, centre, other, got)
	})
}
