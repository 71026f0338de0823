package mat

import "fmt"

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

// Det2x2 returns the determinant of a 2-by-2 matrix.
func Det2x2(a *Matrix) (float64, error) {
	if a.Rows() != 2 || a.Cols() != 2 {
		return 0, fmt.Errorf("mat: Det2x2 requires a 2x2 matrix, got %dx%d: %w",
			a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	return a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0), nil
}
