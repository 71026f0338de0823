// Package lsfd implements the Least Significant Frobenius Distance (LSFD)
// metric of Definition 1 in the paper.
//
// Given two m-by-2 pair matrices X and Y, let X̂ and Ŷ be their column-wise
// zero-mean counterparts.  The LSFD is
//
//	D_F(X, Y)² = λ3² + λ4²
//
// where λ3 and λ4 are the third and fourth singular values of the m-by-4
// matrix [X̂, Ŷ].  A small LSFD means the columns of Y are close to an affine
// combination of the columns of X, i.e. a high-quality affine relationship
// between X and Y exists.  By the Eckart–Young theorem the LSFD equals the
// Frobenius distance between [X̂, Ŷ] and its best rank-2 approximation, which
// is why it obeys the triangle inequality (Theorem 1).
package lsfd

import (
	"errors"
	"fmt"
	"math"

	"affinity/internal/mat"
)

// ErrBadShape is returned when the input matrices are not m-by-2 with
// matching m.
var ErrBadShape = errors.New("lsfd: pair matrices must be m-by-2 with equal m")

// Distance returns the LSFD between two m-by-2 pair matrices.
func Distance(x, y *mat.Matrix) (float64, error) {
	d2, err := SquaredDistance(x, y)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d2), nil
}

// SquaredDistance returns the squared LSFD, D_F(X,Y)² = λ3² + λ4².
func SquaredDistance(x, y *mat.Matrix) (float64, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	// NaN inputs propagate arithmetically — the engine's zero-normalizer
	// convention (undefined in, NaN out), made explicit here because the SVD
	// iteration otherwise treats NaN asymmetrically in its arguments: a NaN in
	// X could converge to a silently wrong finite distance.
	if hasNaN(x) || hasNaN(y) {
		return math.NaN(), nil
	}
	concat, err := x.CenterColumns().HConcat(y.CenterColumns())
	if err != nil {
		return 0, err
	}
	sv, err := mat.SingularValues(concat)
	if err != nil {
		return 0, err
	}
	// concat has 4 columns, so there are exactly 4 singular values; with
	// m >= 2 rows at least 2 are returned, and the remaining ones are zero by
	// convention.
	var d2 float64
	for i := 2; i < len(sv); i++ {
		d2 += sv[i] * sv[i]
	}
	return d2, nil
}

// hasNaN reports whether any entry of the pair matrix is NaN.
func hasNaN(a *mat.Matrix) bool {
	r, c := a.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if math.IsNaN(a.At(i, j)) {
				return true
			}
		}
	}
	return false
}

func validatePair(x, y *mat.Matrix) error {
	if x == nil || y == nil {
		return fmt.Errorf("%w: nil matrix", ErrBadShape)
	}
	xr, xc := x.Dims()
	yr, yc := y.Dims()
	if xc != 2 || yc != 2 || xr != yr || xr < 2 {
		return fmt.Errorf("%w: got %dx%d and %dx%d", ErrBadShape, xr, xc, yr, yc)
	}
	return nil
}
