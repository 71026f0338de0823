package kernel

import (
	"slices"

	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// This file holds the one pass a full SYMEX+ fit reduces its pair covariances
// with: every pair of the canonical triangle, blocked for the registers and
// the cache (Goto & van de Geijn, "Anatomy of high-performance matrix
// multiplication", TOMS 2008).  CovBlock re-centres both columns of every pair
// it reduces; over the whole triangle that is one centring of the lower column
// per pair.  Here a work item centres a panel of upper columns and, a tile of
// rows at a time, the rows paired with them, once each into a small scratch,
// then reduces a register tile of rows × columns per inner loop: five loads
// feed six independent add chains.  Each pair keeps its own accumulator over
// CovBlock's centred operands (x_j − x̄, y_j − ȳ) in sample order and is
// divided by m − 1 like CovBlock, so every value carries CovBlock's bits.

// panelWidth is the number of upper columns a work item centres and pairs
// with every row above them.  Every row tile is centred once per panel, so a
// pair pays 1/panelWidth of a centring; 16 columns of a 720-sample window are
// 92 kB of scratch, which stays in L2 while the rows stream past.
const panelWidth = 16

// tileRows × tileCols is the register tile: six accumulators and five
// operands stay in registers, and the six chains hide the add latency.
const tileRows, tileCols = 3, 2

// panelScratch is one work item's centred columns: the panel's, then the row
// tile's.
type panelScratch struct{ buf []float64 }

// panelPool holds one scratch for good: a collection empties a pool, and
// streaming engines collect often enough that a pooled scratch alone — 109 kB
// for a 720-sample window — would be allocated again on a sizeable share of
// Advances.
var panelPool = par.Scratch[panelScratch]{Hold: true}

// CovTriangle fills, for every canonical pair (u, v), u < v, of the mirror's
// n series with at[t] >= 0 — t the pair's position in the strict upper
// triangle, row by row, n(n−1)/2 entries — out[at[t]] with the pair's sample
// covariance, the bits CovBlock gives it in either orientation.  Entries with
// at[t] < 0 are neither reduced nor written, unless they share a register
// tile with one that is.  The window must hold at least two samples, as a
// fit's does.  Work items are panels of upper columns, claimed by up to
// parallelism workers, the widest first; the output is the same at any
// parallelism.
func (k *Matrix) CovTriangle(mo *Moments, at []int32, out []float64, parallelism int) {
	n := k.n
	panels := (n + panelWidth - 1) / panelWidth
	if parallelism <= 1 {
		// Inline, without the closure a fan-out allocates.
		for i := range panels {
			k.covPanel(mo, at, out, panels-1-i)
		}
		return
	}
	_ = par.Do(panels, parallelism, func(i int) error {
		k.covPanel(mo, at, out, panels-1-i)
		return nil
	})
}

// covPanel reduces every pair (u, v), u < v, whose v lies in panel p:
// [v0, v1) = [p·panelWidth, (p+1)·panelWidth) ∩ [0, n).
func (k *Matrix) covPanel(mo *Moments, at []int32, out []float64, p int) {
	n, m := k.n, k.m
	v0 := p * panelWidth
	v1 := min(v0+panelWidth, n)
	sc, _ := panelPool.Get()
	defer panelPool.Put(sc)
	// Sized for the widest panel the window has, so a work item that misses
	// the pool allocates once for the whole pass.  A scratch more than twice
	// that size is dropped, so the held one follows the window down.
	w := v1 - v0
	need := (min(panelWidth, n) + tileRows) * m
	if cap(sc.buf) > 2*need {
		sc.buf = nil
	}
	sc.buf = slices.Grow(sc.buf[:0], need)
	cols, rows := sc.buf[:w*m], sc.buf[w*m:(w+tileRows)*m]
	for v := v0; v < v1; v++ {
		centre(cols[(v-v0)*m:(v-v0+1)*m], k.Col(timeseries.SeriesID(v)), mo.Mean[v])
	}
	col := func(v int) []float64 { return cols[(v-v0)*m : (v-v0+1)*m : (v-v0+1)*m] }
	// CovBlock's division, not a reciprocal multiply, so the bits are its.
	div := float64(m - 1)
	var x [tileRows][]float64
	var base [tileRows]int // row u0+i's pairs start at at[base[i]+v]
	for u0 := 0; u0 < v1-1; u0 += tileRows {
		// A short last tile repeats its last row, and an odd last column is
		// repeated too; the copies are reduced but never stored, like the
		// pairs on or below the diagonal.
		r := min(tileRows, v1-1-u0)
		for i := range tileRows {
			if i >= r {
				x[i] = x[r-1]
				continue
			}
			u := u0 + i
			if u >= v0 { // a column of the panel, centred already
				x[i] = col(u)
			} else {
				x[i] = rows[i*m : (i+1)*m : (i+1)*m]
				centre(x[i], k.Col(timeseries.SeriesID(u)), mo.Mean[u])
			}
			base[i] = u*(2*n-u-1)/2 - u - 1
		}
		for v := max(v0, u0+1); v < v1; v += tileCols {
			var slot [tileRows][tileCols]int32
			live := false
			for i := range tileRows {
				for c := range tileCols {
					slot[i][c] = -1
					if vc := v + c; i < r && vc < v1 && u0+i < vc {
						slot[i][c] = at[base[i]+vc]
						live = live || slot[i][c] >= 0
					}
				}
			}
			if !live {
				continue
			}
			s := tile32(x[0], x[1], x[2], col(v), col(min(v+1, v1-1)))
			for i := range tileRows {
				for c := range tileCols {
					if slot[i][c] >= 0 {
						out[slot[i][c]] = s[i][c] / div
					}
				}
			}
		}
	}
}

// centre writes x_j − mean, the operand CovBlock rounds, into dst.
func centre(dst, x []float64, mean float64) {
	dst = dst[:len(x)]
	for j, xj := range x {
		dst[j] = xj - mean
	}
}

// tile32 returns the sum of products of each of the three rows x0, x1, x2
// with each of the two columns y0, y1, one accumulator per pair in sample
// order.
func tile32(x0, x1, x2, y0, y1 []float64) (s [tileRows][tileCols]float64) {
	x1, x2, y0, y1 = x1[:len(x0)], x2[:len(x0)], y0[:len(x0)], y1[:len(x0)]
	var s00, s01, s10, s11, s20, s21 float64
	for j, a := range x0 {
		b, c, p, q := x1[j], x2[j], y0[j], y1[j]
		s00 += a * p
		s01 += a * q
		s10 += b * p
		s11 += b * q
		s20 += c * p
		s21 += c * q
	}
	return [tileRows][tileCols]float64{{s00, s01}, {s10, s11}, {s20, s21}}
}
