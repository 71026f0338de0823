package stats

import (
	"math"

	"affinity/internal/timeseries"
)

// This file is the one streaming sufficient statistic the engine slides:
// PairMoments slides Σ x_u·x_v of every pair of a fixed pair list, one add and
// one evict product per pair and slid sample, as one column.  Per-series
// moments are never slid; every epoch reads its window's fresh reduction.
//
// The column is a bound provider, not a value provider: a slid sum is not the
// bits the blocked kernels reduce from the window, so no answer is ever read
// off it.  What it gives is an interval that provably contains the kernel's
// value (DESIGN.md "Slid pair moments" has the proof), tight enough that a
// sweep classifies all but a sliver of the pairs against its predicate without
// touching a raw sample.

// PairMomentPad is the relative half-width of the interval a slid pair moment
// puts around the exact kernels' value, in units of A_u·A_v — the largest
// ‖x_u‖·‖x_v‖ any window had while the sum was being slid.  It sits beside
// the two other paddings of the engine's no-false-dismissal filters: the 1e-9
// of the SCAPE top-k running interval (scape.padBound, scape/topk.go) and the
// sketch tier's 1e-7 (sketch.epsRel).  The derivation: with ε = 2⁻⁵³ the kernel's own value is
// within (m+4)·ε·A_u·A_v of the true sum, the column's starts there too (it is
// materialised by the same kernel), the mean term Σx_u·Σx_v/m adds another
// (2m+3)·ε, and each slid sample rounds two products, one difference and one
// sum, each relative to at most 2·A_u·A_v.  pairMomentUnits counts those
// roundings; Slid refuses to carry a column whose count would pass
// pairMomentBudget, so the accumulated error stays below PairMomentPad/2 and
// the other half absorbs the roundings of forming the bound itself.
const PairMomentPad = 1e-9

// pairMomentBudget is the largest number of ε-roundings a column may have
// accumulated: pairMomentBudget·2⁻⁵³ ≤ PairMomentPad/2.
const pairMomentBudget = 4 << 20

// MaxPairMomentWindow is the longest window a column can be materialised
// over: beyond it the kernels' own rounding would not fit the budget.
const MaxPairMomentWindow = pairMomentBudget/8 - 2

// pairMomentFloor is the absolute slack added to every radius: below it the
// ε-relative error model does not hold (products underflow), and
// pairMomentBudget subnormal roundings of 2⁻¹⁰⁷⁴ stay far under it.
const pairMomentFloor = 1e-300

// PairMoments is one window's column of Σ x_u·x_v over a pair list, with what
// it takes to bound the exact kernels by it.  A column is immutable: Slid
// starts the next window's and SlideChunk fills it.
type PairMoments struct {
	m   int
	dot []float64
	// norm[v] is A_v: the largest ‖x_v‖ of any window since the column was
	// materialised.  The current norm would be unsound the moment a spike
	// leaves the window — the roundings it caused stay in the sum.
	norm  []float64
	units int
}

// NewPairMoments adopts dot — Σ x_u·x_v of every pair of the owner's list,
// reduced by the exact kernel (kernel.DotBlock) from a window of m samples —
// as that window's column; sqNorm[v] is ⟨x_v, x_v⟩ of the same window.
func NewPairMoments(dot, sqNorm []float64, m int) *PairMoments {
	p := &PairMoments{m: m, dot: dot, norm: make([]float64, len(sqNorm)), units: 6*m + 16}
	p.raiseNorms(sqNorm)
	return p
}

// raiseNorms folds a window's squared norms into the high-water marks.  A
// reduced Σx² is below the true one by at most its rounding and m subnormal
// steps; the additive term covers the latter, the pad's headroom the former.
func (p *PairMoments) raiseNorms(sqNorm []float64) {
	floor := math.Sqrt(float64(p.m)) * 0x1p-530
	for v, sq := range sqNorm {
		p.norm[v] = max(p.norm[v], math.Sqrt(sq)+floor)
	}
}

// Slid starts the column of the window that follows p's by slide samples;
// sqNorm holds the new window's ⟨x_v, x_v⟩.  The pair sums are left for
// SlideChunk to fill.  It returns nil when the window was replaced whole or
// the slid samples would exhaust the rounding budget: the owner drops the
// column then and materialises a fresh one when it next needs it.
func (p *PairMoments) Slid(slide int, sqNorm []float64) *PairMoments {
	units := p.units + 8*slide
	if slide >= p.m || units > pairMomentBudget {
		return nil
	}
	next := &PairMoments{m: p.m, dot: make([]float64, len(p.dot)), norm: make([]float64, len(p.norm)), units: units}
	copy(next.norm, p.norm)
	next.raiseNorms(sqNorm)
	return next
}

// SlideChunk fills positions [at, at+len(pairs)) of a column started by
// prev.Slid: pairs are the owner's pairs at those positions, added[v] the
// samples series v gained and evicted[v] the ones it lost, oldest first.
// Every pair's sum is updated sample by sample in that order, so the result
// does not depend on how the caller chunks the list; pairs are walked a row
// at a time, so a run (u,v), (u,v+1), … loads u's samples once.
func (p *PairMoments) SlideChunk(prev *PairMoments, at int, pairs []timeseries.Pair, added, evicted [][]float64) {
	dst, src := p.dot[at:at+len(pairs)], prev.dot[at:at+len(pairs)]
	for i := 0; i < len(pairs); {
		u := pairs[i].U
		au, eu := added[u], evicted[u]
		eu = eu[:len(au)]
		if len(au) == 1 {
			// The steady state of a tick-by-tick stream.
			a, e := au[0], eu[0]
			for ; i < len(pairs) && pairs[i].U == u; i++ {
				v := pairs[i].V
				dst[i] = src[i] + (a*added[v][0] - e*evicted[v][0])
			}
			continue
		}
		for ; i < len(pairs) && pairs[i].U == u; i++ {
			av, ev := added[pairs[i].V][:len(au)], evicted[pairs[i].V][:len(au)]
			d := src[i]
			for t, a := range au {
				d += a*av[t] - eu[t]*ev[t]
			}
			dst[i] = d
		}
	}
}

// Bounds fills lo[i], hi[i] with an interval that contains the exact kernels'
// base value of pairs[i], the pair at position at+i of the column's list: the
// inner product (kernel.DotBlock) or, with covariance set, the sample
// covariance (kernel.CovBlock), for which sum[v] must be the kernel's own
// hoisted Σx_v of the current window.  A pair whose interval is not finite —
// overflowed sums — gets NaN endpoints, which every consumer classifies as
// "no bound".
func (p *PairMoments) Bounds(covariance bool, sum []float64, at int, pairs []timeseries.Pair, lo, hi []float64) {
	dot := p.dot[at : at+len(pairs)]
	if !covariance {
		for i, pair := range pairs {
			d := dot[i]
			r := PairMomentPad*(p.norm[pair.U]*p.norm[pair.V]) + pairMomentFloor
			lo[i], hi[i] = finiteBounds(d-r, d+r)
		}
		return
	}
	if p.m == 1 {
		for i := range pairs {
			lo[i], hi[i] = 0, 0 // CovBlock of a single sample
		}
		return
	}
	fm, den := float64(p.m), float64(p.m-1)
	for i, pair := range pairs {
		mean := sum[pair.U] * sum[pair.V] / fm
		c := dot[i] - mean
		r := PairMomentPad*(p.norm[pair.U]*p.norm[pair.V]+math.Abs(mean)) + pairMomentFloor
		lo[i], hi[i] = finiteBounds((c-r)/den, (c+r)/den)
	}
}

// finiteBounds passes a finite interval through and turns anything else into
// the NaN pair.
func finiteBounds(lo, hi float64) (float64, float64) {
	if lo >= -math.MaxFloat64 && hi <= math.MaxFloat64 {
		return lo, hi
	}
	return math.NaN(), math.NaN()
}
