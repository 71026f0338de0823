package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/timeseries"
)

// momentScenario is one simulated stream for the pair-moment column: n series
// of a long sample stream, a window of m samples sliding over it by slides[e]
// samples at epoch e, and a refresh schedule on which the column is dropped
// and materialised again (the engine's StatsRefreshEvery).
type momentScenario struct {
	n, m         int
	stream       [][]float64
	slides       []int
	refreshEvery int
}

// Series kinds of newMomentScenario.
const (
	kindNoise      = iota // zero-mean noise at the series' magnitude
	kindLargeMean         // a mean 1e8 times the noise: Σxy − ΣxΣy/m cancels
	kindConstant          // one value throughout: zero variance
	kindZeros             // ±0
	kindSpike             // noise with one sample 1e6 times larger
	kindMixedScale        // noise whose magnitude jumps by 1e12 mid-stream
	numSeriesKinds
)

// newMomentScenario draws a scenario from a seed: kinds[v] picks series v's
// shape, exps[v] its decimal magnitude (clamped to the ±150 the engine's
// squared norms can carry), slide 0 draws a fresh slide in 1…m−1 every epoch.
func newMomentScenario(seed int64, n, m, epochs, slide, refreshEvery int, kinds []byte, exps []int) *momentScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &momentScenario{n: n, m: m, refreshEvery: refreshEvery, slides: make([]int, epochs)}
	total := m
	for e := range sc.slides {
		s := slide
		if s <= 0 || s >= m {
			s = 1 + rng.Intn(m-1)
		}
		sc.slides[e] = s
		total += s
	}
	// Every spiking series spikes at the same two samples, so the products the
	// spikes meet in are a spike squared: one sits in the first windows and
	// leaves within a few epochs, the other arrives mid-stream.
	spikes := map[int]bool{m/2 + rng.Intn(m): true, total/2 + rng.Intn(m): true}
	sc.stream = make([][]float64, n)
	for v := range sc.stream {
		exp := max(-150, min(150, exps[v%len(exps)]))
		scale := math.Pow(10, float64(exp))
		kind := int(kinds[v%len(kinds)]) % numSeriesKinds
		constant := scale * (1 + rng.Float64())
		col := make([]float64, total)
		for t := range col {
			noise := scale * rng.NormFloat64()
			switch kind {
			case kindLargeMean:
				col[t] = scale*1e8 + noise
			case kindConstant:
				col[t] = constant
			case kindZeros:
				col[t] = 0
				if rng.Intn(2) == 0 {
					col[t] = math.Copysign(0, -1)
				}
			case kindSpike:
				col[t] = noise
				if spikes[t] {
					col[t] = scale * 1e6
				}
			case kindMixedScale:
				col[t] = noise
				if (t/(3*m))%2 == 1 {
					col[t] = noise * 1e12
				}
			default:
				col[t] = noise
			}
		}
		sc.stream[v] = col
	}
	return sc
}

// momentEpoch is what a scenario shows its visitor at one epoch: the window's
// kernel mirror and hoisted moments, and the column as the engine would hold
// it — materialised by DotBlock at epoch 0 and after every refresh, slid
// otherwise.
type momentEpoch struct {
	epoch int
	at    int // stream position of the window's first sample
	kern  *Matrix
	mom   *Moments
	pairs []timeseries.Pair
	col   *PairMoments
	fresh bool // the column was materialised at this epoch
}

// run walks the scenario, handing every epoch to visit.
func (sc *momentScenario) run(t testing.TB, visit func(ep *momentEpoch)) {
	t.Helper()
	var pairs []timeseries.Pair
	for u := 0; u < sc.n; u++ {
		for v := u + 1; v < sc.n; v++ {
			pairs = append(pairs, timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)})
		}
	}
	window := func(at int) (*Matrix, *Moments) {
		cols := make([][]float64, sc.n)
		for v := range cols {
			cols[v] = sc.stream[v][at : at+sc.m]
		}
		dm, err := timeseries.NewDataMatrix(cols)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := FromData(dm)
		if err != nil {
			t.Fatal(err)
		}
		mom, err := kern.Moments()
		if err != nil {
			t.Fatal(err)
		}
		return kern, mom
	}
	materialise := func(kern *Matrix, mom *Moments) *PairMoments {
		dot := make([]float64, len(pairs))
		kern.DotBlock(mom, pairs, dot)
		return NewPairMoments(dot, mom.SqNorm, sc.m)
	}
	at := 0
	kern, mom := window(at)
	col := materialise(kern, mom)
	visit(&momentEpoch{kern: kern, mom: mom, pairs: pairs, col: col, fresh: true})
	for e, slide := range sc.slides {
		added, evicted := make([][]float64, sc.n), make([][]float64, sc.n)
		for v := range added {
			evicted[v] = sc.stream[v][at : at+slide]
			added[v] = sc.stream[v][at+sc.m : at+sc.m+slide]
		}
		at += slide
		kern, mom = window(at)
		var next *PairMoments
		if sc.refreshEvery == 0 || (e+1)%sc.refreshEvery != 0 {
			next = col.Slid(slide, mom.SqNorm)
		}
		fresh := next == nil
		if fresh {
			next = materialise(kern, mom)
		} else {
			// Two chunks, cut inside a row, must equal one.
			cut := len(pairs) / 2
			next.SlideChunk(col, 0, pairs[:cut], added, evicted)
			next.SlideChunk(col, cut, pairs[cut:], added, evicted)
		}
		col = next
		visit(&momentEpoch{epoch: e + 1, at: at, kern: kern, mom: mom, pairs: pairs, col: col, fresh: fresh})
	}
}

// requireBoundsContainKernels asserts that the column's bounds contain the
// value the exact kernels reduce from the window, for both base T-measures and
// every pair, and returns how many bounds were definite.
func requireBoundsContainKernels(t testing.TB, ep *momentEpoch, col *PairMoments) (definite int) {
	t.Helper()
	exact := make([]float64, len(ep.pairs))
	lo, hi := make([]float64, len(ep.pairs)), make([]float64, len(ep.pairs))
	for _, covariance := range []bool{false, true} {
		if covariance {
			ep.kern.CovBlock(ep.mom, ep.pairs, exact)
		} else {
			ep.kern.DotBlock(ep.mom, ep.pairs, exact)
		}
		col.Bounds(covariance, ep.mom.Sum, 0, ep.pairs, lo, hi)
		for i, pair := range ep.pairs {
			if math.IsNaN(lo[i]) != math.IsNaN(hi[i]) {
				t.Fatalf("epoch %d pair %v covariance=%v: half a bound [%v, %v]", ep.epoch, pair, covariance, lo[i], hi[i])
			}
			if math.IsNaN(lo[i]) {
				continue // no bound: the pair takes the exact path
			}
			definite++
			if !(lo[i] <= exact[i] && exact[i] <= hi[i]) {
				t.Fatalf("epoch %d (window at %d) pair %v covariance=%v: kernel value %v (%x) outside the column's bounds [%v, %v] (width %g)",
					ep.epoch, ep.at, pair, covariance, exact[i], math.Float64bits(exact[i]), lo[i], hi[i], hi[i]-lo[i])
			}
		}
	}
	return definite
}

// FuzzPairMomentBound is the pair-moment column's oracle, in the mould of
// FuzzSketchBoundSoundness: over fuzzed streams — n ≤ 6 series, windows of up
// to 64 samples, slides from 1 to m−1, at least 200 epochs, magnitudes from
// 1e-150 to 1e150, large means over tiny variances, constant series, ±0, a
// 1e6 spike entering and leaving the window — it asserts at every epoch that
// the value CovBlock/DotBlock reduce from the window lies inside the bounds of
// the slid column.  That containment is the whole of what the sweep stage
// relies on: a pair is only ever classified by bounds and only ever valued by
// the kernels.
func FuzzPairMomentBound(f *testing.F) {
	f.Add(int64(1), byte(4), byte(32), byte(1), byte(0), []byte{kindNoise, kindLargeMean, kindSpike, kindConstant}, int16(0), int16(0))
	f.Add(int64(2), byte(1), byte(62), byte(0), byte(64), []byte{kindSpike, kindSpike, kindNoise}, int16(0), int16(3))
	f.Add(int64(3), byte(3), byte(8), byte(7), byte(0), []byte{kindNoise, kindZeros, kindMixedScale}, int16(150), int16(-150))
	f.Add(int64(4), byte(5), byte(17), byte(0), byte(5), []byte{kindLargeMean, kindLargeMean, kindConstant, kindZeros, kindNoise}, int16(-150), int16(-140))
	f.Add(int64(5), byte(2), byte(2), byte(1), byte(0), []byte{kindSpike, kindMixedScale}, int16(148), int16(150))
	f.Fuzz(func(t *testing.T, seed int64, nb, mb, slide, refresh byte, kinds []byte, exp0, exp1 int16) {
		if len(kinds) == 0 {
			return
		}
		n := 2 + int(nb)%5  // 2…6 series
		m := 2 + int(mb)%63 // 2…64 samples
		sc := newMomentScenario(seed, n, m, 200+int(nb), int(slide)%m, int(refresh), kinds, []int{int(exp0), int(exp1), int(exp0+exp1) / 2})
		sc.run(t, func(ep *momentEpoch) { requireBoundsContainKernels(t, ep, ep.col) })
	})
}

// TestPairMomentBoundNeedsHighWaterNorms replays the spike-leaves-the-window
// corpus entry (testdata/fuzz/FuzzPairMomentBound/spike_leaves_window: three
// series, 64 samples, two of them spiking by 1e6) twice: the column's own bounds, padded by the largest norms any
// window has had, hold at every epoch; the same sums padded by the current
// window's norms do not — once the spike is out, the roundings it caused are
// still in the sum and the current norms no longer cover them.
func TestPairMomentBoundNeedsHighWaterNorms(t *testing.T) {
	sc := newMomentScenario(2, 3, 64, 201, 0, 64, []byte{kindSpike, kindSpike, kindNoise}, []int{0, 3, 1})
	escaped := 0
	sc.run(t, func(ep *momentEpoch) {
		if requireBoundsContainKernels(t, ep, ep.col) == 0 {
			t.Fatalf("epoch %d: no definite bound on well-scaled data", ep.epoch)
		}
		current := &PairMoments{m: ep.col.m, dot: ep.col.dot, norm: make([]float64, sc.n), units: ep.col.units}
		current.raiseNorms(ep.mom.SqNorm)
		exact := make([]float64, len(ep.pairs))
		lo, hi := make([]float64, len(ep.pairs)), make([]float64, len(ep.pairs))
		ep.kern.DotBlock(ep.mom, ep.pairs, exact)
		current.Bounds(false, ep.mom.Sum, 0, ep.pairs, lo, hi)
		for i := range ep.pairs {
			if exact[i] < lo[i] || exact[i] > hi[i] {
				escaped++
			}
		}
	})
	if escaped == 0 {
		t.Fatal("bounds padded by the current norms held throughout: the scenario does not exercise the spike leaving the window")
	}
}

// TestPairMomentLongRun slides a column for 10⁵ epochs (10³ under -short)
// across refresh boundaries every 64 epochs and holds it, at every epoch, to
// the kernels' from-scratch values: containment, and a drift that stays a
// small fraction of the pad — the proof's count of roundings, observed.
func TestPairMomentLongRun(t *testing.T) {
	epochs := 100_000
	if testing.Short() {
		epochs = 1_000
	}
	sc := newMomentScenario(11, 4, 32, epochs, 0, 64, []byte{kindNoise, kindLargeMean, kindSpike, kindMixedScale}, []int{0, 2, -3})
	var worst float64
	fresh := 0
	exact := make([]float64, 6)
	sc.run(t, func(ep *momentEpoch) {
		if ep.fresh {
			fresh++
		}
		if requireBoundsContainKernels(t, ep, ep.col) != 2*len(ep.pairs) {
			t.Fatalf("epoch %d: a bound is missing on finite data", ep.epoch)
		}
		ep.kern.DotBlock(ep.mom, ep.pairs, exact)
		for i, pair := range ep.pairs {
			if ep.fresh && ep.col.dot[i] != exact[i] {
				t.Fatalf("epoch %d pair %v: a fresh column holds %v, the kernel reduces %v", ep.epoch, pair, ep.col.dot[i], exact[i])
			}
			drift := math.Abs(ep.col.dot[i]-exact[i]) / (ep.col.norm[pair.U] * ep.col.norm[pair.V])
			worst = max(worst, drift)
		}
	})
	if want := 1 + epochs/64; fresh != want {
		t.Fatalf("%d materialisations over %d epochs, want %d", fresh, epochs, want)
	}
	if worst == 0 || worst > PairMomentPad/100 {
		t.Fatalf("largest drift %g of A_u·A_v: want a nonzero fraction of the pad %g", worst, PairMomentPad)
	}
	t.Logf("largest |slid − kernel| over %d epochs: %.3g · A_u·A_v (pad %g)", epochs, worst, PairMomentPad)
}

// TestPairMomentBudget: a column refuses to slide past its rounding budget or
// across a whole-window slide, and the engine's materialisation guard matches
// the constructor's accounting.
func TestPairMomentBudget(t *testing.T) {
	sq := []float64{1, 1}
	col := NewPairMoments([]float64{0.5}, sq, 8)
	if col.Slid(8, sq) != nil || col.Slid(9, sq) != nil {
		t.Fatal("a whole-window slide was carried")
	}
	steps := 0
	for next := col; next != nil; next = next.Slid(7, sq) {
		steps++
		if steps > pairMomentBudget {
			t.Fatal("the budget never ran out")
		}
	}
	if want := (pairMomentBudget-col.units)/(8*7) + 1; steps != want {
		t.Fatalf("carried %d slides of 7 samples, want %d", steps, want)
	}
	if long := NewPairMoments(nil, nil, MaxPairMomentWindow); long.units > pairMomentBudget || long.Slid(1, nil) == nil {
		t.Fatalf("a window of MaxPairMomentWindow samples starts at %d of %d units", long.units, pairMomentBudget)
	}
	if float64(pairMomentBudget)*0x1p-53 > PairMomentPad/2 {
		t.Fatalf("%d roundings of 2^-53 exceed half the pad %g", pairMomentBudget, PairMomentPad)
	}
}

// TestPairMomentSingleSampleWindow: CovBlock of one sample is 0 by definition,
// and so are the bounds.
func TestPairMomentSingleSampleWindow(t *testing.T) {
	col := NewPairMoments([]float64{6}, []float64{4, 9}, 1)
	lo, hi := make([]float64, 1), make([]float64, 1)
	col.Bounds(true, []float64{2, 3}, 0, []timeseries.Pair{{U: 0, V: 1}}, lo, hi)
	if lo[0] != 0 || hi[0] != 0 {
		t.Fatalf("covariance bounds of a one-sample window: [%v, %v]", lo[0], hi[0])
	}
	col.Bounds(false, nil, 0, []timeseries.Pair{{U: 0, V: 1}}, lo, hi)
	if !(lo[0] < 6 && 6 < hi[0]) || hi[0]-lo[0] > 1e-7 {
		t.Fatalf("dot bounds [%v, %v] around 6", lo[0], hi[0])
	}
}

// TestPairMomentOverflowHasNoBound: sums that overflow give NaN endpoints, not
// an interval that pretends to contain them.
func TestPairMomentOverflowHasNoBound(t *testing.T) {
	for name, col := range map[string]*PairMoments{
		"infinite sum":  NewPairMoments([]float64{math.Inf(1)}, []float64{1, 1}, 4),
		"nan sum":       NewPairMoments([]float64{math.NaN()}, []float64{1, 1}, 4),
		"infinite norm": NewPairMoments([]float64{1}, []float64{math.Inf(1), 1}, 4),
		"huge norms":    NewPairMoments([]float64{1}, []float64{1e300, 1e300}, 4),
	} {
		for _, covariance := range []bool{false, true} {
			lo, hi := []float64{0}, []float64{0}
			col.Bounds(covariance, []float64{1, 1}, 0, []timeseries.Pair{{U: 0, V: 1}}, lo, hi)
			if name == "huge norms" {
				// 1e-9·1e300 is finite: a wide bound, but a bound.
				if math.IsNaN(lo[0]) || !(lo[0] < 0 && hi[0] > 0) {
					t.Fatalf("%s covariance=%v: [%v, %v]", name, covariance, lo[0], hi[0])
				}
				continue
			}
			if !math.IsNaN(lo[0]) || !math.IsNaN(hi[0]) {
				t.Fatalf("%s covariance=%v: bounds [%v, %v], want none", name, covariance, lo[0], hi[0])
			}
		}
	}
}

func ExamplePairMoments() {
	// Two series over a window of three samples, slid by one.
	u, v := []float64{1, 2, 3, 4}, []float64{2, 0, 1, 5}
	sq := func(x []float64) (s float64) {
		for _, xi := range x {
			s += xi * xi
		}
		return s
	}
	pairs := []timeseries.Pair{{U: 0, V: 1}}
	col := NewPairMoments([]float64{1*2 + 2*0 + 3*1}, []float64{sq(u[:3]), sq(v[:3])}, 3)
	next := col.Slid(1, []float64{sq(u[1:]), sq(v[1:])})
	next.SlideChunk(col, 0, pairs, [][]float64{u[3:], v[3:]}, [][]float64{u[:1], v[:1]})
	lo, hi := make([]float64, 1), make([]float64, 1)
	next.Bounds(false, nil, 0, pairs, lo, hi)
	fmt.Printf("%.6f <= %v <= %.6f\n", lo[0], 2*0+3*1+4*5, hi[0])
	// Output: 23.000000 <= 23 <= 23.000000
}
