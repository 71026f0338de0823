package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"affinity/internal/dft"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// buildWindow mirrors deterministic pseudo-random series into the kernel
// form the sketch consumes.
func buildWindow(t testing.TB, n, m int, seed int64) (*kernel.Matrix, *kernel.Moments, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, n)
	for v := range cols {
		col := make([]float64, m)
		phase := rng.Float64() * 2 * math.Pi
		freq := 1 + rng.Intn(m/2)
		for i := range col {
			col[i] = math.Sin(2*math.Pi*float64(freq*i)/float64(m)+phase) +
				0.3*rng.NormFloat64() + 2*rng.Float64()
		}
		cols[v] = col
	}
	d, err := timeseries.NewDataMatrix(cols)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	mom, err := kern.Moments()
	if err != nil {
		t.Fatal(err)
	}
	return kern, mom, cols
}

func allPairs(n int) []timeseries.Pair {
	var out []timeseries.Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)})
		}
	}
	return out
}

// checkBounds asserts the definite-bound contract for every pair of the
// window at sketch width d: sketched lower ≤ exact ≤ sketched upper for both
// base T-measures.  Returns the worst relative bound width seen.
func checkBounds(t testing.TB, s *Set, mom *kernel.Moments, cols [][]float64, label string) float64 {
	t.Helper()
	pairs := allPairs(len(cols))
	tLo := make([]float64, len(pairs))
	tHi := make([]float64, len(pairs))
	worst := 0.0
	for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
		if !s.BoundBlock(base, mom, pairs, tLo, tHi) {
			t.Fatalf("%s: BoundBlock(%v) unsupported", label, base)
		}
		for i, p := range pairs {
			var exact float64
			var err error
			if base == measure.Covariance {
				exact, err = measure.CovarianceOf(cols[p.U], cols[p.V])
			} else {
				exact, err = measure.DotProductOf(cols[p.U], cols[p.V])
			}
			if err != nil {
				t.Fatalf("%s: exact %v(%v): %v", label, base, p, err)
			}
			if !(tLo[i] <= exact && exact <= tHi[i]) {
				t.Fatalf("%s: %v pair %v: exact %v outside sketched bound [%v, %v]",
					label, base, p, exact, tLo[i], tHi[i])
			}
			denom := math.Max(1, math.Abs(exact))
			if w := (tHi[i] - tLo[i]) / denom; w > worst {
				worst = w
			}
		}
	}
	return worst
}

// TestBoundSoundness is the core contract: for several window lengths (both
// FFT regimes) and sketch widths, every pair's exact covariance and dot
// product lies inside the sketched definite bound — and the full-width sketch
// (d = m−1, zero residual) produces tight bounds.
func TestBoundSoundness(t *testing.T) {
	for _, m := range []int{8, 32, 37} { // radix-2 and Bluestein lengths
		kern, mom, cols := buildWindow(t, 8, m, int64(m))
		for _, d := range []int{1, 4, 16, m} {
			s := Build(kern, mom, Options{Enabled: true, Coefficients: d}, 1, &Counters{})
			worst := checkBounds(t, s, mom, cols, "build")
			if d >= m-1 && worst > 1e-5 {
				t.Fatalf("m=%d d=%d: full-width sketch bound width %v should be tight", m, d, worst)
			}
		}
	}
}

// TestBoundSoundnessOffsetSeries: the rounding of the kept coefficients —
// from the FFT and from every sliding step — scales with a series' raw norm,
// DC component included, not with its centred energy, so a series whose mean
// dwarfs its spread (a constant one most of all, centred energy 0, every
// covariance exactly 0) must still get bounds that hold the exact values:
// after Build and after each of several slides that keep the offsets.
func TestBoundSoundnessOffsetSeries(t *testing.T) {
	const n, m = 8, 70
	rng := rand.New(rand.NewSource(11))
	offsets := []float64{3, 1e3, 1e4, 0, 0, 0, 0, 0}
	spreads := []float64{0, 0, 1e-3, 1, 1, 1, 1, 1}
	sample := func(v int) float64 { return offsets[v] + spreads[v]*rng.NormFloat64() + float64(v) }
	cols := make([][]float64, n)
	for v := range cols {
		cols[v] = make([]float64, m)
		for i := range cols[v] {
			cols[v][i] = sample(v)
		}
	}
	window := func(cols [][]float64) (*kernel.Matrix, *kernel.Moments) {
		d, err := timeseries.NewDataMatrix(cols)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := kernel.FromData(d)
		if err != nil {
			t.Fatal(err)
		}
		return kern, d.Moments()
	}
	kern, mom := window(cols)
	s := Build(kern, mom, Options{Enabled: true, Coefficients: 8}, 1, &Counters{})
	checkBounds(t, s, mom, cols, "build")
	for step := 0; step < 6; step++ {
		ticks := make([][]float64, 2)
		for j := range ticks {
			ticks[j] = make([]float64, n)
			for v := range ticks[j] {
				ticks[j][v] = sample(v)
			}
		}
		prev := cols
		var batch [][]float64
		cols, batch = slideWindow(prev, ticks)
		kern, mom = window(cols)
		s = s.Advance(kern, mom, func(v int) []float64 { return prev[v] }, batch, len(ticks), false, nil, 1)
		checkBounds(t, s, mom, cols, fmt.Sprintf("slide %d", step+1))
	}
}

// TestCoefficientClamp pins the width clamp: a sketch can keep at most the
// m−1 non-DC bins, and the effective width is what the planner sees.
func TestCoefficientClamp(t *testing.T) {
	kern, mom, _ := buildWindow(t, 3, 16, 1)
	s := Build(kern, mom, Options{Enabled: true, Coefficients: 1000}, 1, &Counters{})
	if s.Coefficients() != 15 {
		t.Fatalf("Coefficients() = %d, want 15", s.Coefficients())
	}
	if s.NumSeries() != 3 {
		t.Fatalf("NumSeries() = %d", s.NumSeries())
	}
	if o := (Options{}).WithDefaults(); o.Coefficients != DefaultCoefficients {
		t.Fatalf("WithDefaults Coefficients = %d", o.Coefficients)
	}
	if a := s.Ambiguity(); a < 0 || a > 1 || math.IsNaN(a) {
		t.Fatalf("Ambiguity = %v out of [0, 1]", a)
	}
}

// TestBuildDeterministicAcrossParallelism: the sketch slab must be
// bit-identical at any worker count — the engine's determinism contract.
func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	kern, mom, _ := buildWindow(t, 10, 48, 3)
	want := Build(kern, mom, Options{Enabled: true, Coefficients: 8}, 1, &Counters{})
	for _, p := range []int{2, 8} {
		got := Build(kern, mom, Options{Enabled: true, Coefficients: 8}, p, &Counters{})
		if math.Float64bits(got.Ambiguity()) != math.Float64bits(want.Ambiguity()) {
			t.Fatalf("P=%d: ambiguity %v vs %v", p, got.Ambiguity(), want.Ambiguity())
		}
		for i := range want.idx {
			if got.idx[i] != want.idx[i] ||
				math.Float64bits(got.re[i]) != math.Float64bits(want.re[i]) ||
				math.Float64bits(got.im[i]) != math.Float64bits(want.im[i]) {
				t.Fatalf("P=%d: slab entry %d differs", p, i)
			}
		}
	}
}

// fullSortTop is the selection rebuild used before selectTop: sort every
// non-DC bin by (magnitude descending, index ascending), keep the first d,
// return them ascending.  It is the oracle for TestSelectTopMatchesFullSort.
func fullSortTop(spec []complex128, d int) []int32 {
	order := make([]int32, len(spec)-1)
	for k := range order {
		order[k] = int32(k + 1)
	}
	mag := func(k int32) float64 {
		c := spec[k]
		return real(c)*real(c) + imag(c)*imag(c)
	}
	sort.Slice(order, func(i, j int) bool {
		mi, mj := mag(order[i]), mag(order[j])
		if mi != mj {
			return mi > mj
		}
		return order[i] < order[j]
	})
	kept := order[:d]
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return kept
}

// TestSelectTopMatchesFullSort: the heap selection must keep exactly the bins
// the full sort kept — with their re/im bits and the rebuilt counter — on
// random windows and on windows whose spectra tie exactly (an all-zero
// series, an impulse whose bins all have magnitude 1, a pure cosine whose
// mirrored bins are equal).
func TestSelectTopMatchesFullSort(t *testing.T) {
	for _, m := range []int{8, 64, 90, 96} { // radix-2 and Bluestein lengths
		_, _, cols := buildWindow(t, 6, m, int64(100+m))
		impulse := make([]float64, m)
		impulse[0] = 1
		cosine := make([]float64, m)
		for i := range cosine {
			cosine[i] = math.Cos(2 * math.Pi * float64(3*i) / float64(m))
		}
		cols = append(cols, make([]float64, m), impulse, cosine)
		d, err := timeseries.NewDataMatrix(cols)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := kernel.FromData(d)
		if err != nil {
			t.Fatal(err)
		}
		mom, err := kern.Moments()
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 7, 16, m - 1} {
			counters := &Counters{}
			s := Build(kern, mom, Options{Enabled: true, Coefficients: width}, 1, counters)
			if got := counters.Snapshot().Rebuilt; got != int64(len(cols)) {
				t.Fatalf("m=%d d=%d: rebuilt counter %d, want %d", m, width, got, len(cols))
			}
			for v, col := range cols {
				spec := dft.PlanFor(m).TransformInto(nil, col)
				want := fullSortTop(spec, s.d)
				for i, k := range want {
					at := v*s.d + i
					if s.idx[at] != k ||
						math.Float64bits(s.re[at]) != math.Float64bits(real(spec[k])) ||
						math.Float64bits(s.im[at]) != math.Float64bits(imag(spec[k])) {
						t.Fatalf("m=%d d=%d series %d slot %d: kept bin %d (%v, %v), full sort keeps bin %d (%v, %v)",
							m, width, v, i, s.idx[at], s.re[at], s.im[at], k, real(spec[k]), imag(spec[k]))
					}
				}
			}
		}
	}
}

// slideWindow computes the slid window columns and the per-series batch form
// Advance expects.
func slideWindow(cols [][]float64, ticks [][]float64) (next [][]float64, batch [][]float64) {
	slide := len(ticks)
	n := len(cols)
	next = make([][]float64, n)
	batch = make([][]float64, n)
	for v := 0; v < n; v++ {
		b := make([]float64, slide)
		for s := range ticks {
			b[s] = ticks[s][v]
		}
		batch[v] = b
		next[v] = append(append([]float64{}, cols[v][slide:]...), b...)
	}
	return next, batch
}

func advanceFixture(t testing.TB, cols [][]float64, slide int, seed int64) (next [][]float64, batch [][]float64, kern *kernel.Matrix, mom *kernel.Moments) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ticks := make([][]float64, slide)
	for s := range ticks {
		tick := make([]float64, len(cols))
		for v := range tick {
			tick[v] = rng.NormFloat64()
		}
		ticks[s] = tick
	}
	next, batch = slideWindow(cols, ticks)
	d, err := timeseries.NewDataMatrix(next)
	if err != nil {
		t.Fatal(err)
	}
	kern, err = kernel.FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	mom, err = kern.Moments()
	if err != nil {
		t.Fatal(err)
	}
	return next, batch, kern, mom
}

// TestAdvanceSlideTracksDFT: coefficients carried by the sliding-DFT
// recurrence must match a direct DFT of the slid window at the kept indices
// (to float tolerance — epsRel absorbs this in the bounds), the kept-index
// structure must be shared, and the bound contract must keep holding.
func TestAdvanceSlideTracksDFT(t *testing.T) {
	const n, m, slide = 6, 40, 3
	kern, mom, cols := buildWindow(t, n, m, 5)
	c := &Counters{}
	s := Build(kern, mom, Options{Enabled: true, Coefficients: 8}, 1, c)
	next, batch, kern2, mom2 := advanceFixture(t, cols, slide, 6)
	oldCols := func(v int) []float64 { return cols[v] }
	s2 := s.Advance(kern2, mom2, oldCols, batch, slide, false, nil, 1)

	st := c.Snapshot()
	if st.Slid != n || st.Rebuilt != n { // n rebuilt by Build, n slid by Advance
		t.Fatalf("counters = %+v, want %d slid and %d rebuilt", st, n, n)
	}
	plan := dft.PlanFor(m)
	var spec []complex128
	for v := 0; v < n; v++ {
		spec = plan.TransformInto(spec, next[v])
		base := v * s2.d
		for i := 0; i < s2.d; i++ {
			if s2.idx[base+i] != s.idx[base+i] {
				t.Fatalf("series %d slot %d: slid sketch re-picked index %d vs %d",
					v, i, s2.idx[base+i], s.idx[base+i])
			}
			k := s2.idx[base+i]
			want := spec[k]
			dRe := math.Abs(s2.re[base+i] - real(want))
			dIm := math.Abs(s2.im[base+i] - imag(want))
			scale := 1 + math.Sqrt(real(want)*real(want)+imag(want)*imag(want))
			if dRe/scale > 1e-9 || dIm/scale > 1e-9 {
				t.Fatalf("series %d bin %d: slid (%v, %v) vs direct DFT (%v, %v)",
					v, k, s2.re[base+i], s2.im[base+i], real(want), imag(want))
			}
		}
	}
	checkBounds(t, s2, mom2, next, "slid")
}

// TestAdvanceRebuildAndStale: a full-refit Advance re-picks every series
// (bit-identical to a cold Build of the new window), and a stale-set Advance
// rebuilds exactly the flagged series while sliding the rest.
func TestAdvanceRebuildAndStale(t *testing.T) {
	const n, m, slide = 6, 32, 4
	kern, mom, cols := buildWindow(t, n, m, 7)
	s := Build(kern, mom, Options{Enabled: true, Coefficients: 8}, 1, &Counters{})
	next, batch, kern2, mom2 := advanceFixture(t, cols, slide, 8)
	oldCols := func(v int) []float64 { return cols[v] }

	cold := Build(kern2, mom2, Options{Enabled: true, Coefficients: 8}, 1, &Counters{})
	full := s.Advance(kern2, mom2, oldCols, batch, slide, true, nil, 1)
	for i := range cold.idx {
		if full.idx[i] != cold.idx[i] ||
			math.Float64bits(full.re[i]) != math.Float64bits(cold.re[i]) ||
			math.Float64bits(full.im[i]) != math.Float64bits(cold.im[i]) {
			t.Fatalf("full-refit Advance slab entry %d differs from cold Build", i)
		}
	}

	c := &Counters{}
	s.counters = c // isolate the stale-set advance's counters
	stale := make([]bool, n)
	stale[1], stale[4] = true, true
	mixed := s.Advance(kern2, mom2, oldCols, batch, slide, false, stale, 1)
	st := c.Snapshot()
	if st.Rebuilt != 2 || st.Slid != int64(n-2) {
		t.Fatalf("stale advance counters = %+v, want 2 rebuilt / %d slid", st, n-2)
	}
	for _, v := range []int{1, 4} {
		base := v * mixed.d
		for i := 0; i < mixed.d; i++ {
			if mixed.idx[base+i] != cold.idx[base+i] ||
				math.Float64bits(mixed.re[base+i]) != math.Float64bits(cold.re[base+i]) {
				t.Fatalf("stale series %d slot %d not rebuilt like cold Build", v, i)
			}
		}
	}
	checkBounds(t, mixed, mom2, next, "stale-mixed")

	// A slide of the whole window (or more) must force rebuild-all.
	c2 := &Counters{}
	s.counters = c2
	bigBatch := make([][]float64, n)
	for v := range bigBatch {
		bigBatch[v] = next[v][:0]
	}
	whole := s.Advance(kern2, mom2, oldCols, bigBatch, m, false, nil, 1)
	if got := c2.Snapshot(); got.Rebuilt != n || got.Slid != 0 {
		t.Fatalf("whole-window advance counters = %+v, want all rebuilt", got)
	}
	checkBounds(t, whole, mom2, next, "whole-window")
}

// TestCountersNilAndSweep covers the counter plumbing edges.
func TestCountersNilAndSweep(t *testing.T) {
	var nilC *Counters
	if s := nilC.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	c := &Counters{}
	c.CountSweep(3, 4, 5)
	c.CountTopK(7, 11)
	s := c.Snapshot()
	if s.Sweeps != 2 || s.DefiniteIn != 3 || s.DefiniteOut != 4 || s.Ambiguous != 12 || s.TopKSkippedPairs != 11 {
		t.Fatalf("counters = %+v", s)
	}
}
