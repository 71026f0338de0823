package kernel

import (
	"fmt"

	"affinity/internal/measure"
	"affinity/internal/par"
)

// This file holds the second full-fit reduction: every series of a window
// against every centre of its clustering, the cross terms of the pivot terms
// (Σ s_u·r_l and cov(s_u, r_l) for pivot (u, l)) and the centre covariances
// (cov(s_v, r_ω(v))).  The centres form panels of up to panelWidth columns,
// packed once per call in raw and in centred form, and every tile of tileRows
// series is reduced against each panel by two micro-kernel calls: its raw
// samples for the inner products, its centred samples for the covariances.

// rowPool recycles the centred row tiles of a fanned-out pass; a pass at one
// worker centres its rows into the tail of its panel scratch.  They are kept
// apart so the buffer panelPool holds is always a panel's.
var rowPool par.Scratch[panelScratch]

// CrossPanel fills, for every row x_u and every column y_l, l < K = len(cols),
//
//	dot[u·K + l] = Σ x_u[j]·y_l[j]                      — measure.DotProductOf(x_u, y_l)
//	cov[u·K + l] = Σ (x_u[j]−x̄_u)·(y_l[j]−ȳ_l) / (m−1)  — measure.CovarianceOf(x_u, y_l)
//
// bit for bit, given the means x̄_u = rowMeans[u] and ȳ_l = colMeans[l]
// (measure.MeanOf's bits).  Like CovarianceOf it gives 0 for a one-sample
// window.  Like the scalar primitives it reports measure.ErrEmptyInput for a
// row or column without samples and measure.ErrLengthMismatch for one of
// another length than the first row.  Row tiles are claimed by up to
// parallelism workers; the output is the same at any parallelism.
func CrossPanel(rows [][]float64, rowMeans []float64, cols [][]float64, colMeans []float64, dot, cov []float64, parallelism int) error {
	if len(rows) == 0 || len(cols) == 0 {
		return nil
	}
	m := len(rows[0])
	for _, s := range [2][][]float64{rows, cols} {
		for _, x := range s {
			if len(x) == 0 {
				return measure.ErrEmptyInput
			}
			if len(x) != m {
				return fmt.Errorf("%w: %d vs %d", measure.ErrLengthMismatch, m, len(x))
			}
		}
	}
	n, k := len(rows), len(cols)
	dot, cov = dot[:n*k], cov[:n*k]
	// Panel q holds columns [q·panelWidth, …) at width widthOf(q): its raw
	// samples at panelAt(q), its centred ones right after.
	panels := (k + panelWidth - 1) / panelWidth
	widthOf := func(q int) int { return roundUp4(min(panelWidth, k-q*panelWidth)) }
	sc, _ := panelPool.Get()
	defer panelPool.Put(sc)
	buf := sc.grow(2*m*roundUp4(k) + tileRows*m)
	panelAt := func(q int) (raw, centred []float64) {
		lo := 2 * m * q * panelWidth
		w := widthOf(q)
		return buf[lo : lo+m*w], buf[lo+m*w : lo+2*m*w]
	}
	for q := range panels {
		raw, centred := panelAt(q)
		for c := range widthOf(q) {
			if l := q*panelWidth + c; l < k {
				pack(raw, m, c, cols[l], 0)
				pack(centred, m, c, cols[l], colMeans[l])
			} else {
				pack(raw, m, c, nil, 0)
				pack(centred, m, c, nil, 0)
			}
		}
	}
	tile := func(u0 int, scratch []float64) {
		var x, xc [tileRows][]float64
		var s [tileRows][panelWidth]float64
		r := min(tileRows, n-u0)
		for i := range tileRows {
			if i >= r { // a short last tile repeats its last row
				x[i], xc[i] = x[r-1], xc[r-1]
				continue
			}
			x[i], xc[i] = rows[u0+i], scratch[i*m:(i+1)*m:(i+1)*m]
			centre(xc[i], x[i], rowMeans[u0+i])
		}
		for q := range panels {
			raw, centred := panelAt(q)
			w, lo := widthOf(q), q*panelWidth
			hi := min(lo+panelWidth, k)
			micro(&x, raw, w, &s)
			for i := range r {
				copy(dot[(u0+i)*k+lo:(u0+i)*k+hi], s[i][:hi-lo])
			}
			if m == 1 { // CovarianceOf of a single sample
				for i := range r {
					clear(cov[(u0+i)*k+lo : (u0+i)*k+hi])
				}
				continue
			}
			micro(&xc, centred, w, &s)
			// CovarianceOf's division, not a reciprocal multiply, so the bits
			// are its.
			div := float64(m - 1)
			for i := range r {
				for c, v := range s[i][:hi-lo] {
					cov[(u0+i)*k+lo+c] = v / div
				}
			}
		}
	}
	tiles := (n + tileRows - 1) / tileRows
	if parallelism <= 1 {
		// Inline, in the call's own scratch.
		for t := range tiles {
			tile(t*tileRows, buf[2*m*roundUp4(k):])
		}
		return nil
	}
	return par.DoBlocks(tiles, parallelism, func(_ int, blk par.Block) error {
		rs, _ := rowPool.Get()
		defer rowPool.Put(rs)
		scratch := rs.grow(tileRows * m)
		for t := blk.Lo; t < blk.Hi; t++ {
			tile(t*tileRows, scratch)
		}
		return nil
	})
}
