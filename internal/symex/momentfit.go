package symex

import (
	"math"

	"affinity/internal/affine"
	"affinity/internal/kernel"
	"affinity/internal/timeseries"
)

// This file holds the moment form of the SYMEX+ fit, the route every
// relationship of a well-conditioned pivot takes in Compute and Refit.
//
// Algorithm 2's least-squares problem for pivot p = (u, l) and pair (u, v) —
// regress y = s_v on the design [s, r, 1_m] with s = s_u and r = r_l — has
// normal equations whose intercept row only re-centres the other two, so the
// slopes solve the 2×2 system in the centred moments
//
//	G·(a_s, a_r)ᵀ = (cov(s,y), cov(r,y))ᵀ,  G = [[var s, cov(s,r)], [cov(s,r), var r]],
//	b = ȳ − a_s·s̄ − a_r·r̄,
//
// and the transform is A = [[1, a_s], [0, a_r]], B = [0, b]: the first column
// is Lemma 1's canonical a₁ = (1, 0)ᵀ, b₁ = 0 exactly, not to the kernel's
// rounding.  Every input is a second moment the epoch reduces anyway — G is
// the pivot terms' covariance block (PivotTerms), cov(r, y) is v's covariance
// with its own centre (CenterCovariances; ω(v) = l for every member of pivot
// (u, l)), the means are the window's and the clustering's memos — except
// cov(s, y), one centred m-sample dot per relationship.  A full fit (Compute,
// a Refit of every slot) reduces all of them in one pass over the pair
// triangle (kernel.CovTriangle); a partial Refit has a worker block reduce
// those of its pivot groups in one kernel.CovBlock call with the pairs
// oriented (common, other), so a series' pivots share the common column a
// tile at a time — the same bits.  That replaces the kernel's Jacobi SVD per pivot and its three
// latency-bound dots per relationship.
//
// Forming G squares the design's condition number (Golub & Van Loan, Matrix
// Computations, §5.3), so the exactness guard below sends a pivot back to the
// kernel (setPivot + fit) where that loses digits the SVD keeps.

// tau is the exactness guard's floor on 1 − ρ², ρ = corr(s, r).  In σ units —
// â_s = a_s·σ_s/σ_y, â_r = a_r·σ_r/σ_y — the solve reads
//
//	[[1, ρ], [ρ, 1]]·â = (corr(s,y), corr(r,y))ᵀ,
//
// and every entry is a two-pass centred moment whose rounding in these units
// is at most η ≈ (m + 2)·u + (m·u·κ)² (u = 2⁻⁵³, √m·u typical for the first
// term; Cauchy–Schwarz bounds each sum by σσ'; the second is the two-pass
// form's own second-order term, κ = |mean|/σ of the columns — Chan, Golub &
// LeVeque 1983 — and negligible unless κ nears 1/√(m·u)).  A first-order
// perturbation of the system, with
// ‖[[1, ρ], [ρ, 1]]⁻¹‖∞ = 1/(1 − |ρ|) ≤ 2/(1 − ρ²), gives
//
//	‖δâ‖∞ ≤ 2·(1 + 2‖â‖∞)·η / (1 − ρ²)
//
// (the solve's own rounding, the cancellation in 1 − ρ² included, is a few u
// over the same denominator and folds into η).  A pivot the guard admits has
// 1 − ρ² > tau, so each of its coefficients is that close to the exact least
// squares one in σ_y units: below 1.6e-7·(1 + 2‖â‖∞) at m = 720 in the worst
// case, and below 2e-10·(1 + 2‖â‖∞) at the benchmark datasets' smallest
// 1 − ρ² (8.2e-4).  The kernel's bound for the same fit carries
// κ(X)²·u·tan θ with κ(X)² ≈ 4/(1 − ρ²) (θ the angle between y and the
// design's span), so on an admitted pivot the two routes share the
// 1/(1 − ρ²) amplification unless y lies almost in the span.
const tau = 1e-6

// minVariance is the smallest variance the moment form accepts: below the
// normal range a variance no longer carries the relative precision η assumes.
const minVariance = 0x1p-1022

// negligible reports a variance the moment form must not divide by: below the
// normal range (zero included), or so small against its column's mean that
// the two-pass form's second-order term (m·u·κ)² exceeds tau/4, κ = |mean|/σ —
// the computed 1 − ρ² could then pass the guard on rounding alone.  A stuck
// sensor whose constant samples do not sum exactly has such a variance; the
// kernel's rank cut drops it as collinear with 1_m.
func negligible(v, mean float64, m int) bool {
	floor := 2 * float64(m) * 0x1p-53 * mean
	return !(v >= minVariance && v*tau > floor*floor)
}

// momentPivot is the per-pivot half of the centred solve: the slope of each
// pivot column regressed on the other, and the Schur complements of G's two
// diagonal entries (det G = var s·dr = var r·ds), so a relationship's solve
// takes two multiply-subtracts and two divisions and never forms a product of
// two variances.
type momentPivot struct {
	betaSR, betaRS float64 // cov(s,r)/var r and cov(s,r)/var s
	ds, dr         float64 // var s·(1 − ρ²) and var r·(1 − ρ²)
	meanS, meanR   float64
}

// newMomentPivot prepares the centred solve of a pivot from its covariance
// block cov = (var s, cov(s,r), var r) over an m-sample window and the means of
// its two columns.  ok is false when the exactness guard sends the pivot to
// the kernel: m ≤ 3 (three parameters, but centring leaves rank ≤ m − 1, so
// at m = 3 every y lies in the design's span — tan θ = 0, where the kernel
// keeps the digits the 1/(1 − ρ²) amplification costs the moment form), a
// negligible or infinite variance, or 1 − ρ² ≤ tau.
func newMomentPivot(m int, cov [3]float64, meanS, meanR float64) (p momentPivot, ok bool) {
	vs, csr, vr := cov[0], cov[1], cov[2]
	if m <= 3 || negligible(vs, meanS, m) || negligible(vr, meanR, m) {
		return p, false
	}
	p.betaSR, p.betaRS = csr/vr, csr/vs
	p.ds, p.dr = vs-csr*p.betaSR, vr-csr*p.betaRS
	p.meanS, p.meanR = meanS, meanR
	// ds/var s and dr/var r are both 1 − ρ²; an infinite variance makes a
	// comparison false.
	return p, p.ds > tau*vs && p.dr > tau*vr
}

// solve returns the coefficients of one relationship, the other series y given
// by its mean and csy = cov(s, y), cry = cov(r, y):
//
//	a_s = (var r·cov(s,y) − cov(s,r)·cov(r,y)) / det G = (csy − β_sr·cry) / ds
//	a_r = (var s·cov(r,y) − cov(s,r)·cov(s,y)) / det G = (cry − β_rs·csy) / dr
//	b   = ȳ − a_s·s̄ − a_r·r̄
func (p *momentPivot) solve(csy, cry, meanY float64) (as, ar, b float64) {
	as = (csy - p.betaSR*cry) / p.ds
	ar = (cry - p.betaRS*csy) / p.dr
	return as, ar, meanY - as*p.meanS - ar*p.meanR
}

// loadMoments gathers the moment form's inputs over the fitter's window: the
// pivot terms and centre covariances (the layout's memo — reduced here only
// when no one asked for this window yet), the self-moments of the window and
// of the centres, and the window's columnar mirror for the pair covariances.
func (f *fitter) loadMoments(parallelism int) (err error) {
	if f.terms, err = pivotTerms(f.data, f.layout, f.clustering, parallelism); err != nil {
		return err
	}
	if f.centerCov, err = centerCovariances(f.data, f.layout, f.clustering, parallelism); err != nil {
		return err
	}
	f.series, f.centers = f.data.Moments(), f.clustering.CenterMoments()
	f.kern, err = kernel.FromData(f.data)
	return err
}

// momentPivot asks the exactness guard about pivot pi, whose members' other
// series are others, and prepares its centred solve.  It reports false when
// the pivot goes to the kernel: it fails newMomentPivot, or a member's own
// centre is not the pivot's (so cov(r, y) is not its centre covariance).
func (f *fitter) momentPivot(pi int, others []timeseries.SeriesID) (momentPivot, bool) {
	p := f.layout.pivots[pi]
	mp, ok := newMomentPivot(f.data.NumSamples(), f.terms[pi].Cov, f.series.Mean[p.Common], f.centers.Mean[p.Cluster])
	for _, v := range others {
		ok = ok && f.clustering.Assignment[v] == p.Cluster
	}
	return mp, ok
}

// momentGroup solves the members of pivot p, admitted by the guard with the
// prepared solve mp, by the moment form: the member slots, their other series
// and their cov(s, y) are aligned.  It reports false when a coefficient
// overflows; the caller then refits every member by the kernel.
func (f *fitter) momentGroup(p Pivot, mp momentPivot, members []int32, others []timeseries.SeriesID, covs []float64, rels []*Relationship) bool {
	for i, slot := range members {
		v := others[i]
		as, ar, b := mp.solve(covs[i], f.centerCov[v], f.series.Mean[v])
		if !finite(as) || !finite(ar) || !finite(b) {
			return false
		}
		rels[slot] = f.relationship(slot, p, affine.Transform{A: [2][2]float64{{1, as}, {0, ar}}, B: [2]float64{0, b}})
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
