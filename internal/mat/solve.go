package mat

import (
	"fmt"
	"math"
)

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a, computed
// through the SVD: A⁺ = V * diag(1/σ_i) * Uᵀ with small singular values
// truncated.  The result has shape n-by-m for an m-by-n input.
//
// The SYMEX algorithm uses the pseudo-inverse of the m-by-3 design matrix
// [O_p, 1_m] to solve for affine relationships; SYMEX+ caches the result per
// pivot pair (see internal/symex).
func PseudoInverse(a *Matrix) (*Matrix, error) {
	m, n := a.Dims()
	svd, err := ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	p := len(svd.S)
	if p == 0 {
		return New(n, m), nil
	}
	// Truncation threshold in the spirit of LAPACK's default.
	tol := float64(max(m, n)) * Epsilon * svd.S[0]

	// A⁺ = V * Σ⁺ * Uᵀ.  Compute V * Σ⁺ first (n-by-p), then multiply by Uᵀ.
	vsInv := New(n, p)
	for j := 0; j < p; j++ {
		if svd.S[j] <= tol {
			continue
		}
		inv := 1 / svd.S[j]
		for i := 0; i < n; i++ {
			vsInv.data[i*p+j] = svd.V.data[i*p+j] * inv
		}
	}
	return vsInv.Mul(svd.U.T())
}

// Inverse2x2 returns the inverse of a 2-by-2 matrix.  It returns ErrSingular
// when the determinant is (numerically) zero.
func Inverse2x2(a *Matrix) (*Matrix, error) {
	if a.Rows() != 2 || a.Cols() != 2 {
		return nil, fmt.Errorf("mat: Inverse2x2 requires a 2x2 matrix, got %dx%d: %w",
			a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	det := a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0)
	scale := a.MaxAbs()
	if scale == 0 || math.Abs(det) < 1e-15*scale*scale {
		return nil, ErrSingular
	}
	out := New(2, 2)
	out.Set(0, 0, a.At(1, 1)/det)
	out.Set(0, 1, -a.At(0, 1)/det)
	out.Set(1, 0, -a.At(1, 0)/det)
	out.Set(1, 1, a.At(0, 0)/det)
	return out, nil
}

// Det2x2 returns the determinant of a 2-by-2 matrix.
func Det2x2(a *Matrix) (float64, error) {
	if a.Rows() != 2 || a.Cols() != 2 {
		return 0, fmt.Errorf("mat: Det2x2 requires a 2x2 matrix, got %dx%d: %w",
			a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	return a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0), nil
}

// SolveSquare solves the square linear system A x = b via Gaussian elimination
// with partial pivoting.  It is used for small systems (k-by-k with k on the
// order of the number of affine clusters).
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("mat: SolveSquare requires a square matrix, got %dx%d: %w", n, c, ErrDimensionMismatch)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveSquare rhs length %d, want %d: %w", len(b), n, ErrDimensionMismatch)
	}
	// Augmented working copies.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot := col
		maxAbs := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.data[col*n+j], w.data[pivot*n+j] = w.data[pivot*n+j], w.data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := w.At(r, col) / w.At(col, col)
			if factor == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.data[r*n+j] -= factor * w.data[col*n+j]
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		sum := x[r]
		for j := r + 1; j < n; j++ {
			sum -= w.At(r, j) * x[j]
		}
		x[r] = sum / w.At(r, r)
	}
	return x, nil
}
