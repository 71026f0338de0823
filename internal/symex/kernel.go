package symex

import (
	"math"

	"affinity/internal/affine"
	"affinity/internal/mat"
)

// This file holds the two matrix-free kernels behind the m-sample fit, which
// has two callers left: plain SYMEX (the Fig 13 ablation) and the SYMEX+
// pivots the moment form's exactness guard turns away (momentfit.go); every
// other SYMEX+ relationship is a 2×2 centred solve.  The generic route —
// affine.DesignMatrix, mat.PseudoInverse, then affine.FitWithPseudoInverse's
// mat.Mul — stays the public entry and the oracle the parity tests compare
// against; the kernels perform the same floating-point operations in the same
// order on plain slices, so every coefficient of the other series keeps its
// bits:
//
//   - setPivot is mat.PseudoInverse specialised to the design matrix
//     [s_common, r_cluster, 1_m]: the same one-sided Jacobi sweeps
//     (mat.ComputeSVD) over three contiguous columns, the same descending
//     singular-value order and truncation threshold, and mat.Mul's
//     accumulation (every sum starts at zero, terms are added in k order, a
//     term whose left factor is exactly zero is skipped) for V·Σ⁺·Uᵀ.
//   - fit is one column of mat.Mul(pinv, [s_common, s_other]): three running
//     dot products of the pseudo-inverse rows with the other series, read in
//     place.  The column for s_common is not read off the pseudo-inverse: it
//     is (1, 0, 0) exactly, s_common being the design's own first column.
//     Where the design is rank-deficient (a constant common series) the
//     minimum-norm solution would be another one, which W_A would propagate
//     and SCAPE, assuming a₁ = (1, 0)ᵀ, would not.

// pivotFit is one worker's scratch: the pseudo-inverse of the current pivot's
// design matrix.
type pivotFit struct {
	size int          // samples the buffers below were sized for
	w    [3][]float64 // Jacobi working columns, then unit left singular vectors
	rows [3][]float64 // rows of the 3×m pseudo-inverse
}

// resize points the scratch at buffers for an m-sample window.  The working
// columns get at least three entries: a two-sample design is decomposed
// through its 3×2 transpose (see pinvWide).
func (k *pivotFit) resize(m int) {
	if k.size == m {
		return
	}
	k.size = m
	stride := max(m, 3)
	buf := make([]float64, 6*stride)
	for i := range k.w {
		k.w[i] = buf[i*stride : (i+1)*stride]
		k.rows[i] = buf[(3+i)*stride : (3+i)*stride+m]
	}
}

// setPivot computes the pseudo-inverse of [common, centre, 1_m] into k.rows.
// Both columns must have the same length m >= 2; the caller validates that.
func (k *pivotFit) setPivot(common, centre []float64) {
	k.resize(len(common))
	if len(common) == 2 {
		k.pinvWide(common, centre)
	} else {
		k.pinvTall(common, centre)
	}
}

// pinvTall handles m >= 3, where mat.ComputeSVD works on the design matrix
// itself: A⁺ = (V·Σ⁺)·Uᵀ with U the normalised working columns.
func (k *pivotFit) pinvTall(common, centre []float64) {
	m := len(common)
	w := [3][]float64{k.w[0][:m], k.w[1][:m], k.w[2][:m]}
	copy(w[0], common)
	copy(w[1], centre)
	for i := range w[2] {
		w[2][i] = 1
	}
	v := [9]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	sigma, order := thinSVD(w[:], v[:])
	tol := float64(max(m, 3)) * mat.Epsilon * sigma[order[0]]
	for i, row := range k.rows {
		clear(row)
		for _, j := range order {
			if sigma[j] <= tol {
				continue
			}
			inv := 1 / sigma[j]
			mv := v[i*3+j] * inv
			if mv == 0 {
				continue
			}
			for c, u := range w[j] {
				row[c] += mv * u
			}
		}
	}
}

// pinvWide handles m == 2, where the design matrix has fewer rows than
// columns: mat.ComputeSVD decomposes the 3×2 transpose (one working column
// per sample) and swaps U and V, so here the working columns carry V·Σ⁺ and
// the accumulated rotations carry Uᵀ.
func (k *pivotFit) pinvWide(common, centre []float64) {
	w := [2][]float64{k.w[0][:3], k.w[1][:3]}
	for j, col := range w {
		col[0], col[1], col[2] = common[j], centre[j], 1
	}
	v := [4]float64{1, 0, 0, 1}
	sigma, order := thinSVD(w[:], v[:])
	tol := float64(max(len(common), 3)) * mat.Epsilon * sigma[order[0]]
	for i, row := range k.rows {
		clear(row)
		for _, j := range order[:2] {
			if sigma[j] <= tol {
				continue
			}
			inv := 1 / sigma[j]
			mv := w[j][i] * inv
			if mv == 0 {
				continue
			}
			for c := range row {
				row[c] += mv * v[c*2+j]
			}
		}
	}
}

// thinSVD runs mat.ComputeSVD's one-sided Jacobi iteration on the n <= 3
// equally long columns of w in place: on return each column holds its unit
// left singular vector (all zeros when its norm is not positive), v — the
// row-major n×n identity on entry — holds the accumulated rotations, sigma
// the column norms, and order the column indices by descending sigma.
func thinSVD(w [][]float64, v []float64) (sigma [3]float64, order [3]int) {
	n := len(w)
	for sweep := 0; sweep < mat.JacobiMaxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				wp := w[p]
				wq := w[q][:len(wp)]
				var alpha, beta, gamma float64
				for i, x := range wp {
					y := wq[i]
					alpha += x * x
					beta += y * y
					gamma += x * y
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) > mat.SVDTol*math.Sqrt(alpha*beta) {
					converged = false
					zeta := (beta - alpha) / (2 * gamma)
					var t float64
					if zeta > 0 {
						t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
					} else {
						t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
					}
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					for i, x := range wp {
						y := wq[i]
						wp[i] = c*x - s*y
						wq[i] = s*x + c*y
					}
					for i := 0; i < n; i++ {
						vp, vq := v[i*n+p], v[i*n+q]
						v[i*n+p] = c*vp - s*vq
						v[i*n+q] = s*vp + c*vq
					}
				}
			}
		}
		if converged {
			break
		}
	}

	for j, col := range w {
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		sigma[j] = norm
		if norm > 0 {
			for i := range col {
				col[i] /= norm
			}
		} else {
			clear(col)
		}
	}

	// The insertion sort sort.Slice applies to a slice this short, so equal
	// (and NaN) singular values keep the generic route's column order.
	for j := range order {
		order[j] = j
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sigma[order[j]] > sigma[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return sigma, order
}

// dots returns the zero-skipping running dot products of the three
// pseudo-inverse rows with x: one column of mat.Mul(pinv, target).
func (k *pivotFit) dots(x []float64) [3]float64 {
	r0 := k.rows[0]
	r1, r2, x := k.rows[1][:len(r0)], k.rows[2][:len(r0)], x[:len(r0)]
	var s0, s1, s2 float64
	for i, xv := range x {
		if a := r0[i]; a != 0 {
			s0 += a * xv
		}
		if a := r1[i]; a != 0 {
			s1 += a * xv
		}
		if a := r2[i]; a != 0 {
			s2 += a * xv
		}
	}
	return [3]float64{s0, s1, s2}
}

// fit returns the least-squares transform from the current pivot's
// [s_common, r_cluster] to [s_common, other]: the other series' solution is
// A's second column and b₂, the first column the exact (1, 0, 0).
func (k *pivotFit) fit(other []float64) affine.Transform {
	s := k.dots(other)
	return affine.Transform{
		A: [2][2]float64{{1, s[0]}, {0, s[1]}},
		B: [2]float64{0, s[2]},
	}
}
