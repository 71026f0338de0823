// Package kernel holds the blocked, branch-free sweep kernels behind the
// engine's full-dataset W_N scans: a contiguous columnar mirror of the data
// matrix, hoisted per-series moments, and base T-measure evaluators that
// reduce a whole block of sequence pairs per call.
//
// The scalar W_N path evaluates one pair at a time through the measure
// registry: a correlation costs two mean passes, one covariance pass and two
// variance passes (each itself two passes) over the raw samples — roughly
// seven sweeps of both series per pair — with the zero-normalizer condition
// threaded through error-handling control flow.  The blocked kernels restore
// mechanical sympathy without changing a single output bit:
//
//   - per-series moments (sum, mean, variance, squared norm) are hoisted out
//     of the pair loop: the window reduces them once, with the operation order
//     of the scalar primitives (measure.MeanOf, measure.VarianceOf,
//     measure.DotProductOf), so reading them is bit-identical to recomputing
//     them per pair;
//   - the per-pair base reduction keeps, for every pair, one accumulator that
//     walks the two contiguous columns in sample order with the expression
//     shape of measure.CovarianceOf / measure.DotProductOf, so each pair's
//     sequence of rounded operations — and therefore its bits — is the scalar
//     path's.  What is shared is everything around that chain: the pair-list
//     evaluators the sweeps call (CovBlock, DotBlock) reduce a 1×4 register
//     tile, four pairs per inner loop, so the four independent add chains
//     overlap in the floating-point pipeline (one chain alone is bound by add
//     latency), and consecutive canonical pairs (u,v),
//     (u,v+1), … load — and for covariance centre — their common column once
//     for four partners.  (On samples the engine rejects at its boundary the
//     guarantee is NaN-for-NaN: which payload survives a NaN·NaN is the
//     operand order the compiler picked, not a property of the arithmetic.);
//   - a full SYMEX+ fit reduces the covariance of every pair of the window
//     in one pass over the pair triangle (CovTriangle, covtriangle.go), and
//     every series against every cluster centre in one cross pass
//     (CrossPanel, crosspanel.go).  Both centre each column once per panel
//     of up to 16 partners into a small scratch — the operands CovBlock and
//     measure.CovarianceOf round — and hand 3 rows × the panel to one
//     micro-kernel (micro.go) with a rounded multiply and a rounded add per
//     pair and sample and no subtractions, keeping the scalar bits.  The
//     micro-kernel is AVX2 assembly on amd64 CPUs that have it (four pairs a
//     register, twelve accumulators, never a fused multiply-add) and a
//     portable Go twin with a 3×2 register tile everywhere else, chosen once
//     at package init;
//   - undefined derived values propagate arithmetically as NaN (see
//     measure.OrNaN) and interval predicates compact results branch-free
//     (CompactPairs) instead of taking a data-dependent branch per pair.
//
// The one statistic the engine slides rather than reduces lives here too: the
// pair-moment column (PairMoments, pairmoments.go) holds Σ x_u·x_v as DotBlock
// filled it and bounds, never values, the kernels' next reduction.
//
// Blocks are sized so the working set of one call — two columns of samples
// plus the output slot per pair, with consecutive pairs sharing their lower
// column under the canonical lexicographic pair order — stays inside the L2
// cache while the slab streams through at memory bandwidth.
package kernel

import (
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// BlockPairs is the number of sequence pairs a blocked kernel reduces per
// call.  At the paper's window sizes (hundreds to a few thousand samples) a
// block touches a handful of distinct columns — consecutive canonical pairs
// (u,v), (u,v+1), … share the u column — so one call's working set fits in L2
// while the output block still amortizes the call overhead.
const BlockPairs = 256

// Matrix is the columnar mirror of a data window: every series occupies one
// contiguous stride of the slab, so blocked kernels stream it sequentially
// instead of chasing per-series slice headers.  A Matrix is immutable after
// FromData.
type Matrix struct {
	vals        []float64 // column v at vals[v*stride+off:][:m]
	n, m        int
	stride, off int
	mom         *Moments // of the window as FromData saw it
}

// FromData builds the columnar mirror of a data matrix.  A window that is a
// view into a slab (every window a streaming engine slides into) is aliased,
// not copied, at the slab's stride and the view's offset: SlideCopy writes
// only past every view's columns and never into a superseded slab, so the
// columns the mirror reads stay as they are either way.  The window's moments
// are taken here, with the samples: a mirror outlives an Append to its
// source, which drops the source's memo.
func FromData(d *timeseries.DataMatrix) (*Matrix, error) {
	n, m := d.NumSeries(), d.NumSamples()
	k := &Matrix{n: n, m: m, mom: d.Moments()}
	if k.vals, k.stride, k.off = d.Slab(); k.vals != nil {
		return k, nil
	}
	k.vals, k.stride = make([]float64, n*m), m
	for _, id := range d.IDs() {
		s, err := d.Series(id)
		if err != nil {
			return nil, err
		}
		copy(k.vals[int(id)*m:], s)
	}
	return k, nil
}

// NumSeries returns n, the number of columns of the mirror.
func (k *Matrix) NumSeries() int { return k.n }

// NumSamples returns m, the column length.
func (k *Matrix) NumSamples() int { return k.m }

// Col returns series id's column of the slab.  The slab holds every bit of
// the source series (aliased or copied by FromData), so reductions over Col
// are bit-identical to reductions over DataMatrix.Series.
func (k *Matrix) Col(id timeseries.SeriesID) []float64 {
	lo := int(id)*k.stride + k.off
	return k.vals[lo : lo+k.m : lo+k.m]
}

// Moments is the window's memoised per-series statistics
// (timeseries.DataMatrix.Moments): each field carries the bits of the scalar
// primitive the naive W_N path uses (SumOf, MeanOf, VarianceOf,
// DotProductOf(x, x)), so a kernel that reads a hoisted moment produces the
// same bits as a scalar evaluation that recomputes it per pair.
type Moments = timeseries.Moments

// Moments returns the per-series statistics of the window the mirror was built
// from.
func (k *Matrix) Moments() (*Moments, error) { return k.mom, nil }

// BaseBlock returns the blocked evaluator of a base T-measure.  Covariance
// and the dot product are the only T-measures measure.Register admits, so any
// other base is a programming error and panics.
func (k *Matrix) BaseBlock(base measure.Measure) func(mo *Moments, pairs []timeseries.Pair, out []float64) {
	switch base {
	case measure.Covariance:
		return k.CovBlock
	case measure.DotProduct:
		return k.DotBlock
	default:
		panic("kernel: BaseBlock of a measure that is not a base T-measure")
	}
}

// tile is the number of pairs one inner loop of a blocked evaluator reduces:
// four accumulators plus the shared operand stay in registers on every
// supported architecture, and four independent chains are enough to hide the
// floating-point add latency the one-pair loop is bound by.
const tile = 4

// sharedU reports whether the four pairs of a tile have one lower column —
// the common case under the canonical pair order, where a run (u,v), (u,v+1),
// … only breaks at the end of u's row.
func sharedU(q []timeseries.Pair) bool {
	return q[0].U == q[1].U && q[0].U == q[2].U && q[0].U == q[3].U
}

// CovBlock fills out[i] with the sample covariance of pairs[i], hoisting the
// column means from mo.  Pairs are reduced a tile at a time; every pair keeps
// its own accumulator in sample order with the expression shape of
// measure.CovarianceOf, and MeanOf per pair equals the hoisted mean bit for
// bit, so out matches the scalar path exactly in any pair order.  Pairs with
// U == V are allowed (the covariance of a series with itself, used for matrix
// diagonals).
func (k *Matrix) CovBlock(mo *Moments, pairs []timeseries.Pair, out []float64) {
	if k.m == 1 {
		for i := range pairs {
			out[i] = 0 // CovarianceOf of a single sample
		}
		return
	}
	// CovarianceOf divides by m−1; a reciprocal multiply could differ in the
	// last ulp, so the division stays.
	div := float64(k.m - 1)
	full := len(pairs) - len(pairs)%tile
	for i := 0; i < full; i += tile {
		q := pairs[i : i+tile : i+tile]
		var s0, s1, s2, s3 float64
		y0, y1, y2, y3 := k.Col(q[0].V), k.Col(q[1].V), k.Col(q[2].V), k.Col(q[3].V)
		my0, my1, my2, my3 := mo.Mean[q[0].V], mo.Mean[q[1].V], mo.Mean[q[2].V], mo.Mean[q[3].V]
		if sharedU(q) {
			x, mx := k.Col(q[0].U), mo.Mean[q[0].U]
			y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
			for j, xj := range x {
				dx := xj - mx
				s0 += dx * (y0[j] - my0)
				s1 += dx * (y1[j] - my1)
				s2 += dx * (y2[j] - my2)
				s3 += dx * (y3[j] - my3)
			}
		} else {
			x0, x1, x2, x3 := k.Col(q[0].U), k.Col(q[1].U), k.Col(q[2].U), k.Col(q[3].U)
			mx0, mx1, mx2, mx3 := mo.Mean[q[0].U], mo.Mean[q[1].U], mo.Mean[q[2].U], mo.Mean[q[3].U]
			x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
			y0, y1, y2, y3 = y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			for j := range x0 {
				s0 += (x0[j] - mx0) * (y0[j] - my0)
				s1 += (x1[j] - mx1) * (y1[j] - my1)
				s2 += (x2[j] - mx2) * (y2[j] - my2)
				s3 += (x3[j] - mx3) * (y3[j] - my3)
			}
		}
		o := out[i : i+tile : i+tile]
		o[0], o[1], o[2], o[3] = s0/div, s1/div, s2/div, s3/div
	}
	k.covPairs(mo, pairs[full:], out[full:])
}

// covPairs is the one-pair covariance loop — the scalar path's loop over
// hoisted means — for the tail of a block that does not fill a tile.
func (k *Matrix) covPairs(mo *Moments, pairs []timeseries.Pair, out []float64) {
	for i, p := range pairs {
		x, y := k.Col(p.U), k.Col(p.V)
		mx, my := mo.Mean[p.U], mo.Mean[p.V]
		var ss float64
		for j := range x {
			ss += (x[j] - mx) * (y[j] - my)
		}
		out[i] = ss / float64(k.m-1)
	}
}

// DotBlock fills out[i] with the inner product of pairs[i], a tile at a time
// like CovBlock: one accumulator per pair in sample order, the shape of
// measure.DotProductOf.
func (k *Matrix) DotBlock(_ *Moments, pairs []timeseries.Pair, out []float64) {
	full := len(pairs) - len(pairs)%tile
	for i := 0; i < full; i += tile {
		q := pairs[i : i+tile : i+tile]
		var s0, s1, s2, s3 float64
		y0, y1, y2, y3 := k.Col(q[0].V), k.Col(q[1].V), k.Col(q[2].V), k.Col(q[3].V)
		if sharedU(q) {
			x := k.Col(q[0].U)
			y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
			for j, xj := range x {
				s0 += xj * y0[j]
				s1 += xj * y1[j]
				s2 += xj * y2[j]
				s3 += xj * y3[j]
			}
		} else {
			x0, x1, x2, x3 := k.Col(q[0].U), k.Col(q[1].U), k.Col(q[2].U), k.Col(q[3].U)
			x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
			y0, y1, y2, y3 = y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			for j := range x0 {
				s0 += x0[j] * y0[j]
				s1 += x1[j] * y1[j]
				s2 += x2[j] * y2[j]
				s3 += x3[j] * y3[j]
			}
		}
		o := out[i : i+tile : i+tile]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	k.dotPairs(pairs[full:], out[full:])
}

// dotPairs is the one-pair inner-product loop, for the tail of a block.
func (k *Matrix) dotPairs(pairs []timeseries.Pair, out []float64) {
	for i, p := range pairs {
		x, y := k.Col(p.U), k.Col(p.V)
		var sum float64
		for j := range x {
			sum += x[j] * y[j]
		}
		out[i] = sum
	}
}

// Mask1 converts a predicate result to a 0/1 advance (compiled to a setcc,
// not a branch, when inlined) — the building block of branch-free compaction.
func Mask1(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CompactPairs appends to dst every pairs[i] whose values[i] satisfies the
// interval predicate, in order.  The write is unconditional and the write
// index advances by the predicate mask — two comparisons against the
// interval's Span — so the loop carries no data-dependent branch; NaN values
// never match (no comparison with NaN holds), which is how undefined derived
// values drop out of interval results.
func CompactPairs(dst []timeseries.Pair, pairs []timeseries.Pair, values []float64, iv interval.Interval) []timeseries.Pair {
	lo, hi := iv.Span()
	w := len(dst)
	dst = append(dst, pairs...) // reserve; surplus is trimmed below
	for i, p := range pairs {
		dst[w] = p
		w += Mask1(lo <= values[i]) & Mask1(values[i] <= hi)
	}
	return dst[:w]
}

// CompactValues is CompactPairs for the values themselves: it appends to dst
// every values[i] the interval contains, in order, with the same branch-free
// write — so compacting a chunk's pairs and its values by one interval keeps
// the two lists aligned.
func CompactValues(dst []float64, values []float64, iv interval.Interval) []float64 {
	lo, hi := iv.Span()
	w := len(dst)
	dst = append(dst, values...) // reserve; surplus is trimmed below
	for _, v := range values {
		dst[w] = v
		w += Mask1(lo <= v) & Mask1(v <= hi)
	}
	return dst[:w]
}
