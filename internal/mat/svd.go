package mat

import (
	"fmt"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ where A
// is m-by-n, U is m-by-p, V is n-by-p and p = min(m, n).  Singular values are
// returned in non-increasing order.
type SVD struct {
	U *Matrix   // m-by-p left singular vectors
	S []float64 // p singular values, descending
	V *Matrix   // n-by-p right singular vectors
}

// JacobiMaxSweeps bounds the number of one-sided Jacobi sweeps.  Convergence
// for the small, well-conditioned matrices used by Affinity is typically
// reached in fewer than 10 sweeps.
const JacobiMaxSweeps = 60

// SVDTol is the relative off-diagonal tolerance for Jacobi convergence.
const SVDTol = 1e-14

// Epsilon is the float64 machine epsilon that scales the singular-value
// truncation thresholds of Rank and PseudoInverse.
const Epsilon = 2.220446049250313e-16

// ComputeSVD computes the thin SVD of a using the one-sided Jacobi method.
//
// The one-sided Jacobi algorithm orthogonalizes the columns of a working copy
// of A by repeated plane rotations; on convergence the column norms are the
// singular values, the normalized columns are U, and the accumulated
// rotations are V.  It is simple, numerically robust and more than fast
// enough for the tall-and-skinny (m-by-2 .. m-by-4) and small square matrices
// Affinity needs.
func ComputeSVD(a *Matrix) (*SVD, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("mat: cannot compute SVD of empty %dx%d matrix: %w", m, n, ErrDimensionMismatch)
	}
	if m < n {
		// Work on the transpose and swap U and V afterwards.
		svdT, err := ComputeSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: svdT.V, S: svdT.S, V: svdT.U}, nil
	}

	// Working copy whose columns are rotated in place.
	w := a.Clone()
	v := Identity(n)

	for sweep := 0; sweep < JacobiMaxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) > SVDTol*math.Sqrt(alpha*beta) {
					converged = false
					// Compute the Jacobi rotation that annihilates gamma.
					zeta := (beta - alpha) / (2 * gamma)
					var t float64
					if zeta > 0 {
						t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
					} else {
						t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
					}
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					for i := 0; i < m; i++ {
						wp := w.data[i*n+p]
						wq := w.data[i*n+q]
						w.data[i*n+p] = c*wp - s*wq
						w.data[i*n+q] = s*wp + c*wq
					}
					for i := 0; i < n; i++ {
						vp := v.data[i*n+p]
						vq := v.data[i*n+q]
						v.data[i*n+p] = c*vp - s*vq
						v.data[i*n+q] = s*vp + c*vq
					}
				}
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values (column norms) and normalize columns to form U.
	sigma := make([]float64, n)
	u := New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.data[i*n+j] * w.data[i*n+j]
		}
		norm = math.Sqrt(norm)
		sigma[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.data[i*n+j] = w.data[i*n+j] / norm
			}
		}
	}

	// Sort singular values in descending order, permuting U and V columns.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return sigma[idx[i]] > sigma[idx[j]] })

	sortedS := make([]float64, n)
	sortedU := New(m, n)
	sortedV := New(n, n)
	for newJ, oldJ := range idx {
		sortedS[newJ] = sigma[oldJ]
		for i := 0; i < m; i++ {
			sortedU.data[i*n+newJ] = u.data[i*n+oldJ]
		}
		for i := 0; i < n; i++ {
			sortedV.data[i*n+newJ] = v.data[i*n+oldJ]
		}
	}
	return &SVD{U: sortedU, S: sortedS, V: sortedV}, nil
}

// SingularValues returns the singular values of a in non-increasing order.
func SingularValues(a *Matrix) ([]float64, error) {
	svd, err := ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	return svd.S, nil
}

// Rank returns the numerical rank of a: the number of singular values larger
// than tol * max(sigma).  If tol <= 0 a default based on machine epsilon and
// the matrix size is used.
func Rank(a *Matrix, tol float64) (int, error) {
	svd, err := ComputeSVD(a)
	if err != nil {
		return 0, err
	}
	if len(svd.S) == 0 || svd.S[0] == 0 {
		return 0, nil
	}
	if tol <= 0 {
		m, n := a.Dims()
		tol = float64(max(m, n)) * Epsilon
	}
	threshold := tol * svd.S[0]
	rank := 0
	for _, s := range svd.S {
		if s > threshold {
			rank++
		}
	}
	return rank, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
