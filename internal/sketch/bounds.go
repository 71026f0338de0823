package sketch

import (
	"math"

	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// epsRel is the relative padding applied to every sketched bound.  It
// dominates the floating-point error of the FFT (~log₂(m)·2⁻⁵²), of up to
// StatsRefreshEvery sliding updates, and of the exact kernels' accumulation
// order by many orders of magnitude, so a value the padded bound classifies
// as definite really is on that side of the exact kernel's computed value.
// Padding errs toward "ambiguous": too-wide bounds cost exact evaluations,
// never correctness.
const epsRel = 1e-7

// BlockPairs is the prescreen kernels' block width, matching the exact sweep
// kernels' (kernel.BlockPairs) so the two tiers chunk the pair universe
// identically.
const BlockPairs = kernel.BlockPairs

// pairCore runs the merge-intersection over two series' kept coefficient
// lists (both ascending): sum accumulates Σ(Re·Re + Im·Im) over the
// intersection, and kuE/kvE the intersection energies Σ|X[k]|² per side —
// everything the Parseval bound needs, in O(d).
func (s *Set) pairCore(u, v int) (sum, kuE, kvE float64) {
	d := s.d
	ub, vb := u*d, v*d
	i, j := 0, 0
	for i < d && j < d {
		ku, kv := s.idx[ub+i], s.idx[vb+j]
		switch {
		case ku == kv:
			ru, iu := s.re[ub+i], s.im[ub+i]
			rv, iv := s.re[vb+j], s.im[vb+j]
			sum += ru*rv + iu*iv
			kuE += ru*ru + iu*iu
			kvE += rv*rv + iv*iv
			i++
			j++
		case ku < kv:
			i++
		default:
			j++
		}
	}
	return sum, kuE, kvE
}

// centeredBounds returns the padded definite interval of the centered inner
// product ⟨x̂, ŷ⟩ for the pair (u, v).  The padding scales with the raw norms
// ‖x‖·‖y‖, not the centred energies: the kept coefficients come from an FFT
// of the raw column and slide over raw samples, so their rounding is relative
// to ‖x‖, DC component included — the whole error of a constant series, whose
// centred energy is 0.
func (s *Set) centeredBounds(u, v int) (lo, hi float64) {
	sum, kuE, kvE := s.pairCore(u, v)
	fm := float64(s.m)
	sm := sum / fm
	eu, ev := s.energy[u], s.energy[v]
	ru := math.Sqrt(math.Max(0, eu-kuE/fm))
	rv := math.Sqrt(math.Max(0, ev-kvE/fm))
	rad := ru * rv
	pad := epsRel * (math.Abs(sm) + rad + math.Sqrt(s.sqNorm[u]*s.sqNorm[v]))
	return sm - rad - pad, sm + rad + pad
}

// BoundBlock fills tLo/tHi (len(pairs) each) with padded definite bounds on
// the base T-measure for every pair, reading the exact hoisted moments the
// sweep kernels use.  It returns false for a base other than covariance or
// the dot product, which measure.Register does not admit.
func (s *Set) BoundBlock(base measure.Measure, mom *kernel.Moments, pairs []timeseries.Pair, tLo, tHi []float64) bool {
	switch base {
	case measure.Covariance:
		if s.m <= 1 {
			for i := range pairs {
				tLo[i], tHi[i] = 0, 0 // CovBlock of a single sample
			}
			return true
		}
		den := float64(s.m - 1)
		for i, p := range pairs {
			lo, hi := s.centeredBounds(int(p.U), int(p.V))
			tLo[i], tHi[i] = lo/den, hi/den
		}
		return true
	case measure.DotProduct:
		fm := float64(s.m)
		for i, p := range pairs {
			lo, hi := s.centeredBounds(int(p.U), int(p.V))
			mean := fm * mom.Mean[p.U] * mom.Mean[p.V]
			pad := epsRel * (math.Abs(mean) + math.Sqrt(mom.SqNorm[p.U]*mom.SqNorm[p.V]))
			tLo[i], tHi[i] = lo+mean-pad, hi+mean+pad
		}
		return true
	default:
		return false
	}
}
