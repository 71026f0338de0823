package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// testMatrix builds a deterministic pseudo-random window with one constant
// series (id 0) so degenerate normalizers are exercised too.
func testMatrix(t *testing.T, n, m int) (*timeseries.DataMatrix, *Matrix, *Moments) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			if i == 0 {
				rows[i][j] = 42 // constant series: zero variance
			} else {
				rows[i][j] = rng.NormFloat64()*10 + float64(i)
			}
		}
	}
	return mirror(t, rows)
}

// mirror builds the data matrix of rows, its columnar mirror and moments.
func mirror(t testing.TB, rows [][]float64) (*timeseries.DataMatrix, *Matrix, *Moments) {
	t.Helper()
	d, err := timeseries.NewDataMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	k, err := FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := k.Moments()
	if err != nil {
		t.Fatal(err)
	}
	return d, k, mo
}

// allPairsWithDiagonal enumerates every (u, v) with u <= v, including the
// diagonal the MEC matrices need.
func allPairsWithDiagonal(n int) []timeseries.Pair {
	var pairs []timeseries.Pair
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			pairs = append(pairs, timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)})
		}
	}
	return pairs
}

func TestMomentsMatchScalarPrimitives(t *testing.T) {
	check := func(label string, d *timeseries.DataMatrix, mo *Moments) {
		t.Helper()
		if mo != d.Moments() {
			t.Fatalf("%s: the mirror's moments are not the window's memo", label)
		}
		for _, id := range d.IDs() {
			s, err := d.Series(id)
			if err != nil {
				t.Fatal(err)
			}
			mean, _ := measure.MeanOf(s)
			variance, _ := measure.VarianceOf(s)
			sq, _ := measure.DotProductOf(s, s)
			for name, pair := range map[string][2]float64{
				"Sum": {mo.Sum[id], measure.SumOf(s)}, "Mean": {mo.Mean[id], mean},
				"Variance": {mo.Variance[id], variance}, "SqNorm": {mo.SqNorm[id], sq},
			} {
				if !sameBits(pair[0], pair[1]) {
					t.Errorf("%s: %s[%d] = %v, the scalar primitive gives %v", label, name, id, pair[0], pair[1])
				}
			}
			want, err := measure.NaiveSeriesStat(measure.NeedVariance|measure.NeedSqNorm, s)
			if err != nil {
				t.Fatal(err)
			}
			if st := mo.Stat(id); !sameBits(st.Variance, want.Variance) || !sameBits(st.SqNorm, want.SqNorm) {
				t.Errorf("%s: Stat(%d) = %+v, want NaiveSeriesStat = %+v", label, id, st, want)
			}
		}
	}
	d, _, mo := testMatrix(t, 9, 137)
	check("plain", d, mo)
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {9, 7}, {18, 137}} {
		d, _, mo := hostileMatrix(t, rng, shape[0], shape[1])
		check(fmt.Sprintf("hostile %d×%d", shape[0], shape[1]), d, mo)
	}
}

// hostileMatrix builds an n×m window whose series walk the edges of float64:
// by series id mod 9 a constant series, plain normals, ±0 among normals,
// +Inf, −Inf and NaN among normals, magnitudes near 1e+150 and 1e−150, and
// denormals.  The engine rejects NaN and ±Inf samples at its boundary; the
// kernels must agree with the scalar path on them all the same.
func hostileMatrix(t testing.TB, rng *rand.Rand, n, m int) (*timeseries.DataMatrix, *Matrix, *Moments) {
	t.Helper()
	rows := make([][]float64, n)
	for v := range rows {
		rows[v] = make([]float64, m)
		for j := range rows[v] {
			x := rng.NormFloat64()*10 + float64(v)
			switch v % 9 {
			case 0:
				x = 42
			case 2:
				switch rng.Intn(3) {
				case 0:
					x = 0
				case 1:
					x = math.Copysign(0, -1)
				}
			case 3, 4, 5:
				if rng.Intn(4) == 0 {
					x = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[v%9-3]
				}
			case 6:
				x *= 1e150
			case 7:
				x *= 1e-150
			case 8:
				x = math.Copysign(float64(rng.Intn(1000))*math.SmallestNonzeroFloat64, x)
			}
			rows[v][j] = x
		}
	}
	return mirror(t, rows)
}

// sameBits is the parity relation: equal bits, or NaN on both sides.  Which
// payload survives NaN·NaN or NaN+NaN is the operand order of the instruction
// the compiler emitted, so when a window mixes NaN samples with ±Inf ones
// (whose centring yields the other, "indefinite" NaN) the payload is not a
// property of the arithmetic; the NaN is.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// requireBlocksMatchScalar runs CovBlock and DotBlock over the pair list and
// requires every output to carry the bits of measure.CovarianceOf /
// measure.DotProductOf on the same two series.
func requireBlocksMatchScalar(t testing.TB, d *timeseries.DataMatrix, k *Matrix, mo *Moments, pairs []timeseries.Pair) {
	t.Helper()
	cov := make([]float64, len(pairs))
	dot := make([]float64, len(pairs))
	k.CovBlock(mo, pairs, cov)
	k.DotBlock(mo, pairs, dot)
	for i, p := range pairs {
		x, _ := d.Series(p.U)
		y, _ := d.Series(p.V)
		wantCov, err := measure.CovarianceOf(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(cov[i], wantCov) {
			t.Fatalf("CovBlock of %d pairs, [%d] = %v: %x, scalar %x", len(pairs), i, p, math.Float64bits(cov[i]), math.Float64bits(wantCov))
		}
		wantDot, err := measure.DotProductOf(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(dot[i], wantDot) {
			t.Fatalf("DotBlock of %d pairs, [%d] = %v: %x, scalar %x", len(pairs), i, p, math.Float64bits(dot[i]), math.Float64bits(wantDot))
		}
	}
}

// TestBlocksBitIdenticalToScalar is the kernel's core contract: CovBlock and
// DotBlock must reproduce measure.CovarianceOf / measure.DotProductOf bit for
// bit on every pair — whatever tile the pair lands in.  Lists of every length
// 0…9 start at every offset of the canonical order (so a tile's lower column
// changes at each of its four positions, and every tail length follows every
// tile shape), of the order with the diagonal, and of a shuffle of it, over
// windows from one sample up and data from hostileMatrix.
func TestBlocksBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []int{1, 2, 3, 7, 137, 360} {
		d, k, mo := hostileMatrix(t, rng, 10, m)
		diagonal := allPairsWithDiagonal(d.NumSeries())
		shuffled := append([]timeseries.Pair(nil), diagonal...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range [][]timeseries.Pair{d.AllPairs(), diagonal, shuffled} {
			requireBlocksMatchScalar(t, d, k, mo, order)
			for length := 0; length <= 9; length++ {
				for lo := 0; lo+length <= len(order); lo++ {
					requireBlocksMatchScalar(t, d, k, mo, order[lo:lo+length])
				}
			}
		}
	}
}

// FuzzTileKernelParity probes the same contract on generated inputs: a
// hostileMatrix of fuzzed shape and a pair list of fuzzed length, drawn with
// repeats, U == V and U > V allowed, so tiles mix shared and unshared lower
// columns in every arrangement.
func FuzzTileKernelParity(f *testing.F) {
	for i, m := range []uint8{1, 2, 3, 7, 137, 255} {
		f.Add(int64(i)+1, uint8(2+3*i), m, uint8(5+9*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, length uint8) {
		rng := rand.New(rand.NewSource(seed))
		d, k, mo := hostileMatrix(t, rng, 1+int(n)%24, 1+int(m))
		pairs := make([]timeseries.Pair, length)
		for i := range pairs {
			u := timeseries.SeriesID(rng.Intn(d.NumSeries()))
			pairs[i] = timeseries.Pair{U: u, V: timeseries.SeriesID(rng.Intn(d.NumSeries()))}
			if i > 0 && rng.Intn(3) > 0 {
				pairs[i].U = pairs[i-1].U // runs sharing a lower column, as in the canonical order
			}
		}
		requireBlocksMatchScalar(t, d, k, mo, pairs)
	})
}

// FuzzCovBlockOrientation pins the invariant the naive covariance column rests
// on: CovBlock gives a pair the same bits in either orientation and in any
// tile.  A partial SYMEX+ refit reduces cov(s_common, s_other) a pivot at a
// time, in runs that share the common column (shared-U tiles), and a naive
// sweep evaluates the canonical pair wherever its chunk puts it — so a pair
// list, the same list with every pair flipped (its runs become mixed tiles
// sharing the upper column) and each pair on its own (the scalar tail) must
// agree bit for bit, NaN for NaN on hostileMatrix's non-finite samples.  A
// full SYMEX+ fit reduces the same covariances in CovTriangle's pass, which
// must give every off-diagonal pair of the list CovBlock's bits too from
// m = 2 on.  The seeds cover m ∈ {1, 2, 3}, and from n = 9 on the windows
// hold a constant column and columns near 1e±150.
func FuzzCovBlockOrientation(f *testing.F) {
	for i, m := range []uint8{0, 1, 2, 6, 136, 255} {
		f.Add(int64(i)+1, uint8(3+4*i), m, uint8(4+9*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, length uint8) {
		rng := rand.New(rand.NewSource(seed))
		d, k, mo := hostileMatrix(t, rng, 2+int(n)%24, 1+int(m))
		pairs := make([]timeseries.Pair, length)
		flipped := make([]timeseries.Pair, length)
		for i := range pairs {
			u := timeseries.SeriesID(rng.Intn(d.NumSeries()))
			if i > 0 && rng.Intn(3) > 0 {
				u = pairs[i-1].U // a pivot's run: one common column
			}
			v := timeseries.SeriesID(rng.Intn(d.NumSeries()))
			pairs[i], flipped[i] = timeseries.Pair{U: u, V: v}, timeseries.Pair{U: v, V: u}
		}
		got, back, alone := make([]float64, length), make([]float64, length), make([]float64, 1)
		k.CovBlock(mo, pairs, got)
		k.CovBlock(mo, flipped, back)
		for i, p := range pairs {
			k.CovBlock(mo, pairs[i:i+1], alone)
			if !sameBits(got[i], back[i]) || !sameBits(got[i], alone[0]) {
				t.Fatalf("pair %d of %d, %v over m=%d: %x in the list, %x flipped, %x alone", i, len(pairs), p, d.NumSamples(),
					math.Float64bits(got[i]), math.Float64bits(back[i]), math.Float64bits(alone[0]))
			}
		}
		// The full fit's triangle pass must give every canonical pair the
		// same bits over any window a fit accepts.
		if d.NumSamples() < 2 {
			return
		}
		ns := d.NumSeries()
		tri := make([]float64, ns*(ns-1)/2)
		k.CovTriangle(mo, identityAt(len(tri)), tri, 1)
		for i, p := range pairs {
			if p.U == p.V {
				continue
			}
			if cov := tri[triIndex(ns, p)]; !sameBits(got[i], cov) {
				t.Fatalf("pair %d of %d, %v over m=%d: CovBlock %x, CovTriangle %x",
					i, len(pairs), p, d.NumSamples(), math.Float64bits(got[i]), math.Float64bits(cov))
			}
		}
	})
}

func TestBlocksSingleSampleWindow(t *testing.T) {
	d, k, mo := testMatrix(t, 4, 1)
	pairs := allPairsWithDiagonal(d.NumSeries())
	out := make([]float64, len(pairs))
	k.CovBlock(mo, pairs, out)
	for i := range out {
		if out[i] != 0 {
			t.Errorf("CovBlock m=1 out[%d] = %v, want 0 (CovarianceOf convention)", i, out[i])
		}
	}
}

func TestBaseBlockDispatch(t *testing.T) {
	_, k, _ := testMatrix(t, 3, 8)
	if k.BaseBlock(measure.Covariance) == nil || k.BaseBlock(measure.DotProduct) == nil {
		t.Fatal("builtin bases must have blocked kernels")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an L-measure base must panic: it has no blocked kernel")
		}
	}()
	k.BaseBlock(measure.Mean)
}

func TestCompactPairsMatchesFilterLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairs := allPairsWithDiagonal(12)
	values := make([]float64, len(pairs))
	for i := range values {
		switch rng.Intn(5) {
		case 0:
			values[i] = math.NaN()
		default:
			values[i] = rng.NormFloat64()
		}
	}
	intervals := []interval.Interval{
		interval.All(),
		interval.GreaterThan(0),
		interval.AtMost(-0.5),
		interval.Between(-1, 1),
		interval.New(interval.Open(0), interval.Open(0)), // empty
	}
	for _, iv := range intervals {
		var want []timeseries.Pair
		var wantValues []float64
		for i, p := range pairs {
			if iv.Contains(values[i]) {
				want = append(want, p)
				wantValues = append(wantValues, values[i])
			}
		}
		// CompactValues keeps the values of exactly the rows CompactPairs keeps.
		gotValues := CompactValues([]float64{7}, values, iv)
		if gotValues[0] != 7 || len(gotValues) != 1+len(wantValues) {
			t.Fatalf("CompactValues(%v) with prefix: len %d, want %d", iv, len(gotValues), 1+len(wantValues))
		}
		for i, v := range wantValues {
			if gotValues[1+i] != v {
				t.Fatalf("CompactValues(%v)[%d] = %v, want %v", iv, i, gotValues[1+i], v)
			}
		}
		got := CompactPairs(nil, pairs, values, iv)
		if len(got) != len(want) {
			t.Fatalf("CompactPairs(%v): %d pairs, want %d", iv, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CompactPairs(%v)[%d] = %v, want %v", iv, i, got[i], want[i])
			}
		}
		// Appending to a non-empty dst keeps the prefix intact.
		prefix := []timeseries.Pair{{U: 100, V: 101}}
		got = CompactPairs(prefix, pairs, values, iv)
		if got[0] != (timeseries.Pair{U: 100, V: 101}) || len(got) != 1+len(want) {
			t.Fatalf("CompactPairs with prefix: len %d, want %d", len(got), 1+len(want))
		}
	}
}

func TestMask1(t *testing.T) {
	if Mask1(true) != 1 || Mask1(false) != 0 {
		t.Fatal("Mask1 must map true→1, false→0")
	}
}

// TestFromDataAliasesSlidWindow: a window produced by SlideCopy is one slab,
// and FromData mirrors it without copying.  The aliasing mirror and a copied
// mirror of the same samples give the same bits everywhere, and nothing done
// to the source window afterwards reaches the mirror.
func TestFromDataAliasesSlidWindow(t *testing.T) {
	base, _, _ := testMatrix(t, 7, 64)
	rng := rand.New(rand.NewSource(11))
	batch := make([][]float64, base.NumSeries())
	for v := range batch {
		batch[v] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	slid, err := base.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := FromData(slid)
	if err != nil {
		t.Fatal(err)
	}
	slab, stride, off := slid.Slab()
	if slab == nil || &aliased.vals[0] != &slab[0] || aliased.stride != stride || aliased.off != off {
		t.Fatal("FromData copied a window that is already one slab")
	}
	copied, err := FromData(slid.Clone()) // Clone lays the columns out separately
	if err != nil {
		t.Fatal(err)
	}
	if &copied.vals[0] == &slab[0] || copied.stride != copied.NumSamples() || copied.off != 0 {
		t.Fatal("a cloned window must not alias the original's slab")
	}
	// The next slide runs in place: a view at a non-zero offset into the same
	// slab, which its mirror aliases and reduces bit for bit.
	shifted, err := slid.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	shiftedSlab, _, shiftedOff := shifted.Slab()
	sk, err := FromData(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if &shiftedSlab[0] != &slab[0] || shiftedOff != off+len(batch[0]) || sk.off != shiftedOff {
		t.Fatalf("the second slide did not run in place (offset %d after %d)", shiftedOff, off)
	}
	requireBlocksMatchScalar(t, shifted, sk, shifted.Moments(), allPairsWithDiagonal(shifted.NumSeries()))
	// A second mirror of the window, whose moments nobody asks for until its
	// source has been mutated.
	late, err := FromData(slid)
	if err != nil {
		t.Fatal(err)
	}

	requireSame := func(label string) {
		t.Helper()
		am, err := aliased.Moments()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := copied.Moments()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < aliased.NumSeries(); v++ {
			for name, pair := range map[string][2]float64{
				"sum": {am.Sum[v], cm.Sum[v]}, "mean": {am.Mean[v], cm.Mean[v]},
				"variance": {am.Variance[v], cm.Variance[v]}, "sqnorm": {am.SqNorm[v], cm.SqNorm[v]},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s: %s of series %d: aliased %v, copied %v", label, name, v, pair[0], pair[1])
				}
			}
		}
		pairs := allPairsWithDiagonal(aliased.NumSeries())
		got, want := make([]float64, len(pairs)), make([]float64, len(pairs))
		for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
			aliased.BaseBlock(base)(am, pairs, got)
			copied.BaseBlock(base)(cm, pairs, want)
			for i := range pairs {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: %v of %v: aliased %v, copied %v", label, base, pairs[i], got[i], want[i])
				}
			}
		}
	}
	requireSame("fresh")

	// Appending a series to the source leaves the mirror's bits alone.
	if err := slid.Append("extra", make([]float64, slid.NumSamples())); err != nil {
		t.Fatal(err)
	}
	requireSame("after Append")
	if vals, _, _ := slid.Slab(); vals != nil {
		t.Fatal("a mutated window still claims to be one slab")
	}
	// A mirror keeps the moments of the window it was built from: the late
	// mirror reads the memo the first one read, not the mutated source's.
	am, _ := aliased.Moments()
	lm, err := late.Moments()
	if err != nil {
		t.Fatal(err)
	}
	if lm != am || lm == slid.Moments() || len(lm.Sum) != late.NumSeries() {
		t.Fatal("a mirror's first Moments call after its source was mutated did not return the moments of the window it mirrors")
	}
	if again, err := FromData(slid); err != nil || again.NumSamples() != slid.NumSamples() || again.NumSeries() != slid.NumSeries() {
		t.Fatalf("FromData of the mutated window: %v", err)
	}
}

// benchmarkBlock times one blocked evaluator over the canonical pairs of an
// n×m window in BlockPairs chunks — the sweep's access pattern — and reports
// ns per pair.
func benchmarkBlock(b *testing.B, n, m int, eval func(*Matrix, *Moments, []timeseries.Pair, []float64)) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	d, k, mo := mirror(b, rows)
	pairs := d.AllPairs()
	out := make([]float64, BlockPairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(pairs); lo += BlockPairs {
			hi := min(lo+BlockPairs, len(pairs))
			eval(k, mo, pairs[lo:hi], out[:hi-lo])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
}

func BenchmarkCovBlock(b *testing.B)           { benchmarkBlock(b, 168, 360, (*Matrix).CovBlock) }
func BenchmarkDotBlock(b *testing.B)           { benchmarkBlock(b, 168, 360, (*Matrix).DotBlock) }
func BenchmarkCovBlockLongWindow(b *testing.B) { benchmarkBlock(b, 128, 720, (*Matrix).CovBlock) }
