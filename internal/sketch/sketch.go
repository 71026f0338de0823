// Package sketch maintains per-epoch, per-series top-d DFT coefficient
// sketches over the engine's window and derives definite lower/upper bounds
// on every base T-measure from them — the filter half of the engine's
// filter-and-refine sweep tier (StatStream-style, refs [1–3] of the paper).
//
// # The sketch
//
// For a series x of m samples with DFT X, the constant (mean) shift lives
// entirely in bin 0, so for every k ≥ 1 the coefficient X[k] equals the DFT
// of the centered series x̂ = x − x̄.  The sketch keeps, per series, the d
// coefficients of largest magnitude among k = 1..m−1 (ties to the smaller
// index), stored sorted by index for merge-intersection, together with the
// centered window energy ‖x̂‖² = (m−1)·Var(x) taken from the exact per-series
// moments the sweep kernels already hoist.
//
// # The bound
//
// By Parseval, the centered inner product of two series is
//
//	⟨x̂, ŷ⟩ = (1/m)·Σ_{k≥1} X[k]·conj(Y[k]).
//
// Splitting the sum at A = K_x ∩ K_y (the intersection of the kept index
// sets) gives a computed part S = (1/m)·Σ_{k∈A}(Re X·Re Y + Im X·Im Y) and a
// tail over k ∉ A whose magnitude Cauchy–Schwarz bounds by R_x·R_y, where
// R_x² = ‖x̂‖² − (1/m)·Σ_{k∈A}|X[k]|² is the energy the intersection misses.
// Hence ⟨x̂, ŷ⟩ ∈ [S − R_x·R_y, S + R_x·R_y], definitely.  Covariance divides
// by m−1; the dot product adds back m·x̄·ȳ from the exact hoisted means.  A
// small relative padding (epsRel) absorbs the floating-point error of the
// FFT, the sliding updates and the exact kernels' own accumulation order, so
// classification against the padded bounds errs toward "ambiguous" — which
// costs an exact evaluation, never a wrong answer.
//
// # Maintenance
//
// On Advance every kept coefficient is slid with the standard sliding-DFT
// recurrence X'[k] = (X[k] − evicted + appended)·e^{2πik/m} per slide step
// (O(slide·d) per series, sharing the previous epoch's kept-index structure),
// while the series the caller marks stale — and every series when it asks for
// a full rebuild — are rebuilt from a full pooled FFT that re-picks the top-d
// set.  The engine marks none and asks for the rebuild on its periodic
// statistics-refresh epochs only: a series' DFT depends on its window, not on
// which affine relationships were refit.  Energies always come from the new
// epoch's exact moments.
package sketch

import (
	"math"
	"slices"
	"sync/atomic"

	"affinity/internal/dft"
	"affinity/internal/kernel"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// DefaultCoefficients is the default sketch width d (coefficients kept per
// series), the middle of the bench sweep d ∈ {8, 16, 32}.
const DefaultCoefficients = 16

// Options configures the engine's sketch tier.
type Options struct {
	// Enabled turns coefficient sketches on (the zero value keeps the engine
	// on the plain exact sweep kernels).
	Enabled bool
	// Coefficients is the sketch width d (default DefaultCoefficients),
	// clamped to the m−1 non-DC bins the window has.
	Coefficients int
}

// WithDefaults returns o with the calibrated defaults filled in.
func (o Options) WithDefaults() Options {
	if o.Coefficients <= 0 {
		o.Coefficients = DefaultCoefficients
	}
	return o
}

// Counters accumulates the sketch tier's lifetime counters.  One Counters
// object is shared by every epoch's Set (threaded through Advance, like the
// result cache), so the totals survive epoch swaps; all fields are atomic and
// safe for concurrent queries.
type Counters struct {
	rebuilt     atomic.Int64
	slid        atomic.Int64
	sweeps      atomic.Int64
	definiteIn  atomic.Int64
	definiteOut atomic.Int64
	ambiguous   atomic.Int64
	topkSkipped atomic.Int64
}

// Stats is a point-in-time snapshot of Counters.
type Stats struct {
	// Rebuilt counts series sketches recomputed by a full FFT (stale series,
	// refresh and full-refit epochs, and the initial build).
	Rebuilt int64
	// Slid counts series sketches delta-updated by the sliding-DFT
	// recurrence, sharing the previous epoch's kept-index structure.
	Slid int64
	// Sweeps counts sketch-prescreened sweep executions.
	Sweeps int64
	// DefiniteIn/DefiniteOut/Ambiguous count interval prescreen
	// classifications; only ambiguous pairs reach the exact kernels.
	DefiniteIn  int64
	DefiniteOut int64
	Ambiguous   int64
	// TopKSkippedPairs counts pairs a top-k sweep ruled out against its
	// heap's running threshold, so they were never refined.
	TopKSkippedPairs int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Rebuilt:          c.rebuilt.Load(),
		Slid:             c.slid.Load(),
		Sweeps:           c.sweeps.Load(),
		DefiniteIn:       c.definiteIn.Load(),
		DefiniteOut:      c.definiteOut.Load(),
		Ambiguous:        c.ambiguous.Load(),
		TopKSkippedPairs: c.topkSkipped.Load(),
	}
}

// CountSweep records one prescreened sweep with its classification counts.
func (c *Counters) CountSweep(in, out, ambiguous int64) {
	c.sweeps.Add(1)
	c.definiteIn.Add(in)
	c.definiteOut.Add(out)
	c.ambiguous.Add(ambiguous)
}

// CountTopK records one prescreened top-k sweep: the pairs the bounds could
// not rule out against the heap's running threshold, which go on to be
// refined, and the pairs they ruled out (skipped).
func (c *Counters) CountTopK(refined, skipped int64) {
	c.sweeps.Add(1)
	c.ambiguous.Add(refined)
	c.topkSkipped.Add(skipped)
}

// Set is one epoch's sketches: an immutable slab of n·d kept coefficients
// (indices ascending per series) plus per-series energies.  Sets are built
// once per epoch and read concurrently by queries.
type Set struct {
	n, m, d int

	idx    []int32   // n·d kept coefficient indices, ascending per series
	re, im []float64 // n·d kept coefficient values
	energy []float64 // n: centered window energy ‖x̂‖² = (m−1)·Var
	sqNorm []float64 // n: raw window energy ‖x‖², which scales the padding
	// peak is each series' largest raw window energy since its last
	// rebuild: the sliding recurrence's rounding scales with it, not with
	// the current window's (see slideRebuild).
	peak []float64

	// twiddle[k] = e^{+2πik/m}, the per-step sliding-DFT rotation; computed
	// once and shared by every epoch's Set of this engine.
	twiddle []complex128

	ambiguity float64 // deterministic planner estimate, see Ambiguity

	counters *Counters
}

// Coefficients returns the effective sketch width d (after clamping to the
// window's m−1 non-DC bins).
func (s *Set) Coefficients() int { return s.d }

// NumSeries returns the number of sketched series.
func (s *Set) NumSeries() int { return s.n }

// Counters returns the shared lifetime counters.
func (s *Set) Counters() *Counters { return s.counters }

// Ambiguity is the planner's deterministic estimate of the prescreen's
// ambiguous fraction: twice the mean residual-energy fraction across series
// (the relative half-width of the typical bound), clamped to [0, 1].  It
// depends only on the epoch's sketch content, so plan choices built on it are
// identical at any parallelism.
func (s *Set) Ambiguity() float64 { return s.ambiguity }

// buildScratch is the pooled per-goroutine FFT/selection scratch of full
// sketch rebuilds.
type buildScratch struct {
	spec []complex128
	mag  []float64 // squared magnitudes of the non-DC bins, mag[k-1] for bin k
}

var scratchPool par.Scratch[buildScratch]

// Build computes the sketch set of a window from its mirrored columns and
// exact moments.  parallelism shards the per-series FFTs; the result is
// identical at any level.
func Build(kern *kernel.Matrix, mom *kernel.Moments, opts Options, parallelism int, counters *Counters) *Set {
	opts = opts.WithDefaults()
	n, m := kern.NumSeries(), kern.NumSamples()
	s := newSet(n, m, opts.Coefficients, counters)
	s.twiddle = make([]complex128, m)
	for k := 0; k < m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		s.twiddle[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	plan := dft.PlanFor(m)
	_ = par.Do(n, parallelism, func(v int) error {
		s.rebuild(v, kern.Col(timeseries.SeriesID(v)), mom, plan)
		return nil
	})
	counters.rebuilt.Add(int64(n))
	copy(s.peak, mom.SqNorm)
	s.finish(mom)
	return s
}

func newSet(n, m, d int, counters *Counters) *Set {
	if d > m-1 {
		d = m - 1
	}
	if d < 0 {
		d = 0
	}
	return &Set{
		n: n, m: m, d: d,
		idx:      make([]int32, n*d),
		re:       make([]float64, n*d),
		im:       make([]float64, n*d),
		energy:   make([]float64, n),
		sqNorm:   make([]float64, n),
		peak:     make([]float64, n),
		counters: counters,
	}
}

// rebuild recomputes series v's sketch from a full FFT of its raw column,
// re-picking the top-d coefficients by magnitude (ties to the smaller index).
func (s *Set) rebuild(v int, col []float64, mom *kernel.Moments, plan *dft.Plan) {
	if s.d == 0 {
		return
	}
	sc, _ := scratchPool.Get()
	sc.spec = plan.TransformInto(sc.spec, col)
	spec := sc.spec
	if cap(sc.mag) < s.m-1 {
		sc.mag = make([]float64, s.m-1)
	}
	mag := sc.mag[:s.m-1]
	for i := range mag {
		c := spec[i+1]
		mag[i] = real(c)*real(c) + imag(c)*imag(c)
	}
	base := v * s.d
	kept := s.idx[base : base+s.d]
	selectTop(kept, mag)
	slices.Sort(kept)
	for i, k := range kept {
		s.re[base+i] = real(spec[k])
		s.im[base+i] = imag(spec[k])
	}
	scratchPool.Put(sc)
}

// selectTop fills kept with the len(kept) best bins k in [1, len(mag)] under
// the total order "larger mag[k-1] first, smaller k on ties", in no particular
// order.  It scans the bins once against a heap of the current selection whose
// root is its worst member, so the cost is O(m + replaced·log d) rather than a
// full sort of all m-1 bins.
func selectTop(kept []int32, mag []float64) {
	worse := func(a, b int32) bool {
		if ma, mb := mag[a-1], mag[b-1]; ma != mb {
			return ma < mb
		}
		return a > b
	}
	sift := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(kept) {
				return
			}
			if c+1 < len(kept) && worse(kept[c+1], kept[c]) {
				c++
			}
			if !worse(kept[c], kept[i]) {
				return
			}
			kept[i], kept[c] = kept[c], kept[i]
			i = c
		}
	}
	for i := range kept {
		kept[i] = int32(i + 1)
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for k := int32(len(kept) + 1); int(k) <= len(mag); k++ {
		if worse(kept[0], k) {
			kept[0] = k
			sift(0)
		}
	}
}

// finish fills the per-series energies from the epoch's exact moments and
// recomputes the planner's ambiguity estimate.
func (s *Set) finish(mom *kernel.Moments) {
	fm := float64(s.m)
	var resSum float64
	copy(s.sqNorm, mom.SqNorm)
	for v := 0; v < s.n; v++ {
		e := float64(s.m-1) * mom.Variance[v]
		s.energy[v] = e
		if e > 0 {
			var keep float64
			base := v * s.d
			for i := 0; i < s.d; i++ {
				keep += s.re[base+i]*s.re[base+i] + s.im[base+i]*s.im[base+i]
			}
			res := e - keep/fm
			if res > 0 {
				resSum += math.Sqrt(res / e)
			}
		}
	}
	amb := 0.0
	if s.n > 0 {
		amb = 2 * resSum / float64(s.n)
	}
	if amb > 1 {
		amb = 1
	}
	s.ambiguity = amb
}

// slideRebuild bounds how far a series' window energy may fall below its
// peak since the last rebuild before its coefficients are rebuilt instead of
// slid: the recurrence's rounding is relative to the largest samples it ever
// carried, epsRel's padding to the current window's, and a peak 10⁴ times the
// current energy (samples 100 times larger) still leaves epsRel a margin of
// about 4·10⁶/d slide steps.  Streams of steady magnitude never hit it.
const slideRebuild = 1e4

// Advance derives the next epoch's sketch set.  Every series' kept
// coefficients are slid by the per-step sliding-DFT recurrence over the
// evicted (old window prefix) and appended (batch) samples; series with
// stale[v] set or whose energy fell below its peak by slideRebuild — and
// every series when rebuildAll is true or slide >= m — are instead rebuilt
// from a full FFT of the new column, re-picking the top-d set.  kern and mom
// describe the new window.
func (s *Set) Advance(kern *kernel.Matrix, mom *kernel.Moments, oldCols func(v int) []float64, batch [][]float64, slide int, rebuildAll bool, stale []bool, parallelism int) *Set {
	n, m := kern.NumSeries(), kern.NumSamples()
	next := newSet(n, m, s.d, s.counters)
	next.twiddle = s.twiddle
	if m != s.m || n != s.n || slide >= m {
		rebuildAll = true
	}
	plan := dft.PlanFor(m)
	var rebuilt, slid atomic.Int64
	_ = par.Do(n, parallelism, func(v int) error {
		next.peak[v] = max(s.peak[v], mom.SqNorm[v])
		if rebuildAll || (stale != nil && stale[v]) || next.peak[v] > slideRebuild*mom.SqNorm[v] {
			next.rebuild(v, kern.Col(timeseries.SeriesID(v)), mom, plan)
			next.peak[v] = mom.SqNorm[v]
			rebuilt.Add(1)
			return nil
		}
		next.slide(s, v, oldCols(v)[:slide], batch[v])
		slid.Add(1)
		return nil
	})
	s.counters.rebuilt.Add(rebuilt.Load())
	s.counters.slid.Add(slid.Load())
	next.finish(mom)
	return next
}

// slide carries series v's kept coefficients from the previous epoch through
// the sliding-DFT recurrence, one step per slid sample.
func (next *Set) slide(prev *Set, v int, evicted, appended []float64) {
	d := next.d
	base := v * d
	copy(next.idx[base:base+d], prev.idx[base:base+d])
	for i := 0; i < d; i++ {
		k := prev.idx[base+i]
		tw := next.twiddle[k]
		val := complex(prev.re[base+i], prev.im[base+i])
		for j := range evicted {
			val = (val + complex(appended[j]-evicted[j], 0)) * tw
		}
		next.re[base+i] = real(val)
		next.im[base+i] = imag(val)
	}
}
