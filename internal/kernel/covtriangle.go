package kernel

import (
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// This file holds the one pass a full SYMEX+ fit reduces its pair covariances
// with: every pair of the canonical triangle, blocked for the registers and
// the cache (Goto & van de Geijn, "Anatomy of high-performance matrix
// multiplication", TOMS 2008).  CovBlock re-centres both columns of every pair
// it reduces; over the whole triangle that is one centring of the lower column
// per pair.  Here a work item centres a panel of upper columns once, straight
// into the micro-kernel's packed layout (micro.go), and, a tile of rows at a
// time, the rows paired with them into a small scratch; then one micro-kernel
// call reduces the tile's rows against the whole panel.  Each pair keeps its
// own accumulator over CovBlock's centred operands (x_j − x̄, y_j − ȳ) in
// sample order and is divided by m − 1 like CovBlock, so every value carries
// CovBlock's bits.  A panel of 16 columns of a 720-sample window is 92 kB of
// scratch, which stays in L2 while the rows stream past.

// panelScratch is one work item's centred operands: the panel's, then the row
// tile's.  The cross pass (crosspanel.go) borrows the same scratch.
type panelScratch struct{ buf []float64 }

// panelPool recycles the panel scratch of both passes: 109 kB for a
// 720-sample window, kept across collections like every par.Scratch.
var panelPool par.Scratch[panelScratch]

// grow sizes the scratch for need floats.  A scratch is allocated at the
// exact size, and one more than twice that size is dropped, so a kept one
// follows the window down.  The two passes that share it need (16 + 3)·m and
// (2·⌈K/4⌉·4 + 3)·m floats at one window, within that factor of each other
// from 13 series and up to 16 centres.
func (sc *panelScratch) grow(need int) []float64 {
	if cap(sc.buf) < need || cap(sc.buf) > 2*need {
		sc.buf = make([]float64, need)
	}
	return sc.buf[:need]
}

// CovTriangle fills, for every canonical pair (u, v), u < v, of the mirror's
// n series with at[t] >= 0 — t the pair's position in the strict upper
// triangle, row by row, n(n−1)/2 entries — out[at[t]] with the pair's sample
// covariance, the bits CovBlock gives it in either orientation.  Entries with
// at[t] < 0 are neither reduced nor written.  The window must hold at least
// two samples, as a fit's does.  Work items are panels of upper columns,
// claimed by up to parallelism workers, the widest first; the output is the
// same at any parallelism.
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
	w := v1 - v0
	sc, _ := panelPool.Get()
	defer panelPool.Put(sc)
	// Sized for the widest panel the window has, so a work item that misses
	// the pool allocates once for the whole pass.
	widest := roundUp4(min(panelWidth, n))
	buf := sc.grow((widest + tileRows) * m)
	panel, rows := buf[:widest*m], buf[widest*m:]
	width := roundUp4(w)
	for c := range width {
		if c < w {
			pack(panel, m, c, k.Col(timeseries.SeriesID(v0+c)), mo.Mean[v0+c])
		} else {
			pack(panel, m, c, nil, 0)
		}
	}
	// CovBlock's division, not a reciprocal multiply, so the bits are its.
	div := float64(m - 1)
	var x [tileRows][]float64
	var s [tileRows][panelWidth]float64
	for u0 := 0; u0 < v1-1; u0 += tileRows {
		// A short last tile repeats its last row; the copies are reduced but
		// never stored, like the pairs on or below the diagonal.
		r := min(tileRows, v1-1-u0)
		if !livePairs(at, n, u0, r, v0, w) {
			continue
		}
		for i := range tileRows {
			if i >= r {
				x[i] = x[r-1]
				continue
			}
			u := u0 + i
			x[i] = rows[i*m : (i+1)*m : (i+1)*m]
			centre(x[i], k.Col(timeseries.SeriesID(u)), mo.Mean[u])
		}
		// A tile on the panel's diagonal starts at the group of its first
		// row's first partner: the groups left of it hold no pair.
		g0 := max(0, u0+1-v0) / 4 * 4
		micro(&x, panel[g0*m:], width-g0, &s)
		for i := range r {
			u := u0 + i
			base := u*(2*n-u-1)/2 - u - 1 // row u's pairs start at at[base+v]
			for c := max(0, u+1-v0); c < w; c++ {
				if slot := at[base+v0+c]; slot >= 0 {
					out[slot] = s[i][c-g0] / div
				}
			}
		}
	}
}

// livePairs reports whether any pair (u, v0+c), u0 <= u < u0+r, c < w,
// u < v0+c, has an output slot.
func livePairs(at []int32, n, u0, r, v0, w int) bool {
	for u := u0; u < u0+r; u++ {
		base := u*(2*n-u-1)/2 - u - 1
		for c := max(0, u+1-v0); c < w; c++ {
			if at[base+v0+c] >= 0 {
				return true
			}
		}
	}
	return false
}

// centre writes x_j − mean, the operand CovBlock rounds, into dst.
func centre(dst, x []float64, mean float64) {
	dst = dst[:len(x)]
	for j, xj := range x {
		dst[j] = xj - mean
	}
}
