package measure

import "fmt"

// Pivot cross moments.  Every pivot pair matrix O_p = [s_common, r_cluster]
// that shares its common series shares that column, and the only second-moment
// terms that are specific to one pivot are the cross terms of the two columns;
// the self-moments belong to a series or to a centre and are reduced once
// each.  CrossMoments reduces one series against all of its centres, a tile of
// up to three at a time: the series is loaded (and, for the covariance,
// centred) once per tile, and the tile's independent add chains overlap in the
// floating-point pipeline, where the one-pair loops of CovarianceOf and
// DotProductOf are bound by add latency.  Every output keeps its own single
// accumulator, walks the samples in order and uses the expression shape of the
// scalar primitive, so its sequence of rounded operations — and therefore its
// bits — is the scalar primitive's (the contract kernel.CovBlock and DotBlock
// keep for sequence pairs).

// crossTile is the number of partner columns one inner loop reduces.
const crossTile = 3

// CrossMoments fills, for every partner column ys[c] of the series x,
//
//	dot[c] = Σ x[j]·ys[c][j]                        — DotProductOf(x, ys[c])
//	cov[c] = Σ (x[j]−mx)·(ys[c][j]−mys[c]) / (m−1)  — CovarianceOf(x, ys[c])
//
// bit for bit, given the column means mx = MeanOf(x) and mys[c] =
// MeanOf(ys[c]) (SumOf over the length).  A nil cov reduces the inner products
// only and ignores the means.  Like the scalar primitives it reports
// ErrEmptyInput for a column without samples and ErrLengthMismatch for a
// partner of another length than x.
func CrossMoments(x []float64, mx float64, ys [][]float64, mys, dot, cov []float64) error {
	if len(x) == 0 {
		return ErrEmptyInput
	}
	for _, y := range ys {
		if len(y) == 0 {
			return ErrEmptyInput
		}
		if len(y) != len(x) {
			return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
		}
	}
	if cov == nil {
		crossDots(x, ys, dot[:len(ys)])
		return nil
	}
	crossCovDots(x, mx, ys, mys[:len(ys)], dot[:len(ys)], cov[:len(ys)])
	if len(x) == 1 {
		for c := range ys {
			cov[c] = 0 // CovarianceOf of a single sample
		}
		return nil
	}
	// CovarianceOf divides by m−1; a reciprocal multiply could differ in the
	// last ulp, so the division stays.
	div := float64(len(x) - 1)
	for c := range ys {
		cov[c] /= div
	}
	return nil
}

// crossDots reduces the inner products of x with every column of ys.
func crossDots(x []float64, ys [][]float64, dot []float64) {
	c := 0
	for ; c+crossTile <= len(ys); c += crossTile {
		y0, y1, y2 := ys[c][:len(x)], ys[c+1][:len(x)], ys[c+2][:len(x)]
		var d0, d1, d2 float64
		for j, xj := range x {
			d0 += xj * y0[j]
			d1 += xj * y1[j]
			d2 += xj * y2[j]
		}
		dot[c], dot[c+1], dot[c+2] = d0, d1, d2
	}
	if len(ys)-c == 2 {
		y0, y1 := ys[c][:len(x)], ys[c+1][:len(x)]
		var d0, d1 float64
		for j, xj := range x {
			d0 += xj * y0[j]
			d1 += xj * y1[j]
		}
		dot[c], dot[c+1] = d0, d1
		return
	}
	for ; c < len(ys); c++ {
		y0 := ys[c][:len(x)]
		var d0 float64
		for j, xj := range x {
			d0 += xj * y0[j]
		}
		dot[c] = d0
	}
}

// crossCovDots reduces the inner products and the centred cross sums (the
// covariance numerators, left in cov) of x with every column of ys.
func crossCovDots(x []float64, mx float64, ys [][]float64, mys, dot, cov []float64) {
	c := 0
	for ; c+crossTile <= len(ys); c += crossTile {
		y0, y1, y2 := ys[c][:len(x)], ys[c+1][:len(x)], ys[c+2][:len(x)]
		my0, my1, my2 := mys[c], mys[c+1], mys[c+2]
		var d0, d1, d2, s0, s1, s2 float64
		for j, xj := range x {
			dx := xj - mx
			d0 += xj * y0[j]
			s0 += dx * (y0[j] - my0)
			d1 += xj * y1[j]
			s1 += dx * (y1[j] - my1)
			d2 += xj * y2[j]
			s2 += dx * (y2[j] - my2)
		}
		dot[c], dot[c+1], dot[c+2] = d0, d1, d2
		cov[c], cov[c+1], cov[c+2] = s0, s1, s2
	}
	if len(ys)-c == 2 {
		y0, y1 := ys[c][:len(x)], ys[c+1][:len(x)]
		my0, my1 := mys[c], mys[c+1]
		var d0, d1, s0, s1 float64
		for j, xj := range x {
			dx := xj - mx
			d0 += xj * y0[j]
			s0 += dx * (y0[j] - my0)
			d1 += xj * y1[j]
			s1 += dx * (y1[j] - my1)
		}
		dot[c], dot[c+1] = d0, d1
		cov[c], cov[c+1] = s0, s1
		return
	}
	for ; c < len(ys); c++ {
		y0, my0 := ys[c][:len(x)], mys[c]
		var d0, s0 float64
		for j, xj := range x {
			d0 += xj * y0[j]
			s0 += (xj - mx) * (y0[j] - my0)
		}
		dot[c], cov[c] = d0, s0
	}
}
