// Package affine implements affine transformations between pair matrices and
// the measure propagation rules of Section 2.3 of the paper.
//
// An affine transformation (A, b) maps a source pair matrix X ∈ R^{m×2} to a
// target pair matrix Y ∈ R^{m×2} through
//
//	Y = X·A + 1_m·bᵀ            (Eq. 4)
//
// An affine relationship (Definition 3) is an affine transformation whose
// source is a pivot pair matrix O_p and whose target is a sequence pair
// matrix S_e; it is computed with the least-squares method from the
// pseudo-inverse of the design matrix [O_p, 1_m].
//
// The propagation rules allow statistical measures of Y to be computed from
// measures of X and (A, b) without touching the raw series:
//
//	L(Y)ᵀ = L(X)ᵀ·A + bᵀ                          (Eq. 5)
//	Σ(Y)  = Aᵀ·Σ(X)·A                             (Eq. 6)
//	Π12(Y) = a1ᵀ·Π(X)·a2 + b2·a1ᵀh + b1·a2ᵀh + m·b1·b2
//	ρ12(Y) = Σ12(Y) / U12                         (Eq. 8)
//
// The dot-product rule above is the exact expansion of (X·a1 + b1·1)ᵀ(X·a2 +
// b2·1); the paper's Eq. 7 prints a compressed form of the same identity.
package affine

import (
	"errors"
	"fmt"

	"affinity/internal/mat"
	"affinity/internal/measure"
)

// ErrBadShape indicates inputs whose dimensions do not match an m-by-2 pair
// matrix or a 2-by-2 transformation.
var ErrBadShape = errors.New("affine: bad shape")

// Transform is an affine transformation (A, b) between two pair matrices.
type Transform struct {
	// A is the 2-by-2 transformation matrix, A[row][column].
	A [2][2]float64
	// B is the translation vector (b1, b2).
	B [2]float64
}

// Columns returns the two columns a1 and a2 of the transformation matrix.
func (t *Transform) Columns() (a1, a2 [2]float64) {
	a1 = [2]float64{t.A[0][0], t.A[1][0]}
	a2 = [2]float64{t.A[0][1], t.A[1][1]}
	return a1, a2
}

// Clone returns a copy of the transform.
func (t *Transform) Clone() *Transform {
	c := *t
	return &c
}

// matrix returns A as a generic 2-by-2 matrix, for the routines that go
// through mat.
func (t *Transform) matrix() *mat.Matrix {
	a := mat.New(2, 2)
	copy(a.RawData(), []float64{t.A[0][0], t.A[0][1], t.A[1][0], t.A[1][1]})
	return a
}

// String renders the transform compactly.
func (t *Transform) String() string {
	return fmt.Sprintf("A=[[%.4g %.4g][%.4g %.4g]] b=[%.4g %.4g]",
		t.A[0][0], t.A[0][1], t.A[1][0], t.A[1][1], t.B[0], t.B[1])
}

// DesignMatrix returns the m-by-3 matrix [X, 1_m] used to solve for an affine
// transformation by least squares.
func DesignMatrix(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != 2 || x.Rows() < 2 {
		return nil, fmt.Errorf("%w: source must be m-by-2 with m >= 2, got %dx%d",
			ErrBadShape, x.Rows(), x.Cols())
	}
	return x.HConcat(mat.Ones(x.Rows(), 1))
}

// Fit computes the least-squares affine transformation (A, b) that maps the
// source pair matrix X to the target pair matrix Y, i.e. minimizes
// ‖X·A + 1·bᵀ − Y‖_F.  This is the LeastSquares routine of Algorithm 2.
func Fit(source, target *mat.Matrix) (*Transform, error) {
	design, err := DesignMatrix(source)
	if err != nil {
		return nil, err
	}
	pinv, err := mat.PseudoInverse(design)
	if err != nil {
		return nil, err
	}
	return FitWithPseudoInverse(pinv, target)
}

// FitWithPseudoInverse computes the affine transformation using a
// pre-computed pseudo-inverse of the design matrix [X, 1_m].  SYMEX+ caches
// this pseudo-inverse per pivot pair (Section 4, "Pseudo-inverse cache").
func FitWithPseudoInverse(designPinv, target *mat.Matrix) (*Transform, error) {
	if target.Cols() != 2 {
		return nil, fmt.Errorf("%w: target must be m-by-2, got %dx%d",
			ErrBadShape, target.Rows(), target.Cols())
	}
	if designPinv.Rows() != 3 || designPinv.Cols() != target.Rows() {
		return nil, fmt.Errorf("%w: pseudo-inverse is %dx%d, want 3x%d",
			ErrBadShape, designPinv.Rows(), designPinv.Cols(), target.Rows())
	}
	// solution is 3-by-2: the first two rows form A, the last row is bᵀ.
	sol, err := designPinv.Mul(target)
	if err != nil {
		return nil, err
	}
	return &Transform{
		A: [2][2]float64{{sol.At(0, 0), sol.At(0, 1)}, {sol.At(1, 0), sol.At(1, 1)}},
		B: [2]float64{sol.At(2, 0), sol.At(2, 1)},
	}, nil
}

// Apply returns X·A + 1_m·bᵀ for an m-by-2 input X.
func (t *Transform) Apply(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != 2 {
		return nil, fmt.Errorf("%w: input must be m-by-2, got %dx%d", ErrBadShape, x.Rows(), x.Cols())
	}
	xa, err := x.Mul(t.matrix())
	if err != nil {
		return nil, err
	}
	out := xa.Clone()
	for i := 0; i < out.Rows(); i++ {
		out.Add(i, 0, t.B[0])
		out.Add(i, 1, t.B[1])
	}
	return out, nil
}

// PropagateCovariance applies the off-diagonal part of Eq. 6:
// Σ12(Y) = a1ᵀ·Σ(X)·a2, the covariance between the two target series.
func (t *Transform) PropagateCovariance(sourceCov *mat.Matrix) (float64, error) {
	if sourceCov.Rows() != 2 || sourceCov.Cols() != 2 {
		return 0, fmt.Errorf("%w: covariance must be 2x2, got %dx%d",
			ErrBadShape, sourceCov.Rows(), sourceCov.Cols())
	}
	a1, a2 := t.Columns()
	return quadraticForm(a1, sourceCov, a2), nil
}

// PropagateSecondVariance returns entry (2, 2) of Aᵀ·Σ(X)·A: the variance
// of the second target series, the one a relationship maps off the common
// series, without touching the raw target series.  cov holds the distinct
// entries (Σ11, Σ12, Σ22) of the symmetric source covariance —
// measure.PivotTerms.Cov.
//
// The streaming drift scorer calls this once per relationship per epoch and
// the stale set (hence every later answer) depends on its bits, so it is the
// closed form of the generic product Aᵀ·Σ·A by two mat.Mul calls: the entry
// is row 2 of Aᵀ·Σ times column 2 of A, every sum starting from zero, adding
// terms in k order and skipping a term whose left factor is exactly zero.
func (t *Transform) PropagateSecondVariance(cov [3]float64) float64 {
	a0, a1 := t.A[0][1], t.A[1][1]
	var t0, t1 float64 // row 2 of Aᵀ·Σ
	if a0 != 0 {
		t0 += a0 * cov[0]
		t1 += a0 * cov[1]
	}
	if a1 != 0 {
		t0 += a1 * cov[1]
		t1 += a1 * cov[2]
	}
	var v float64
	if t0 != 0 {
		v += t0 * a0
	}
	if t1 != 0 {
		v += t1 * a1
	}
	return v
}

// PropagateMoment computes a T-measure of the target pair from source-side
// quantities only, as the quadratic form ã1ᵀ·M·ã2 over the augmented columns
// ãj = (a1j, a2j, bj) of the transformation and the measure's augmented
// second-moment matrix M (measure.Spec.Moment).  With M assembled from the
// source covariance this is exactly Eq. 6's off-diagonal; with the Gram
// block, column sums and sample count it is exactly the expanded Eq. 7 — the
// spec decides, so no layer above names individual T-measures.
func (t *Transform) PropagateMoment(mm measure.Moment) float64 {
	p := NewPropagator(mm)
	return p.Propagate(t)
}

// Propagator is one source moment matrix M laid out as scalars, for
// propagating it through many transforms: the inner loop of a W_A column
// fill, one pivot's moment against each of its relationships.
type Propagator struct {
	s11, s12, s22, h1, h2, c float64
	// centred reports H = 0 and C = 0 (the covariance form), where the
	// translation drops out.
	centred bool
}

// NewPropagator hoists mm into a Propagator.
func NewPropagator(mm measure.Moment) Propagator {
	return Propagator{
		s11: mm.S[0], s12: mm.S[1], s22: mm.S[2], h1: mm.H[0], h2: mm.H[1], c: mm.C,
		centred: mm.H[0] == 0 && mm.H[1] == 0 && mm.C == 0,
	}
}

// Propagate is PropagateMoment of the propagator's moment matrix through t.
// It reads A and B in place rather than through Columns: a copy of the
// columns into stack arrays is read back wider than it was written, which
// stalls store-to-load forwarding on every call of a column fill.
func (p *Propagator) Propagate(t *Transform) float64 {
	a11, a21 := t.A[0][0], t.A[1][0] // ã1
	a12, a22 := t.A[0][1], t.A[1][1] // ã2
	quad := a11*(p.s11*a12+p.s12*a22) + a21*(p.s12*a12+p.s22*a22)
	if p.centred {
		return quad
	}
	a1h := a11*p.h1 + a21*p.h2
	a2h := a12*p.h1 + a22*p.h2
	return quad + t.B[1]*a1h + t.B[0]*a2h + p.c*t.B[0]*t.B[1]
}

// PropagateMeasure computes any pairwise measure of the
// target pair: the base T value propagates through the moment matrix and the
// spec's monotone transform combines it with the target pair's separable
// parameter (Eq. 8 generalized beyond ratio normalizers).
func (t *Transform) PropagateMeasure(sp *measure.Spec, mm measure.Moment, param float64, m int) (float64, error) {
	if !sp.Pairwise() {
		return 0, fmt.Errorf("affine: %v is not a pairwise measure: %w", sp.ID, measure.ErrUnknownMeasure)
	}
	return sp.Eval(t.PropagateMoment(mm), param, m)
}

// quadraticForm computes xᵀ·M·y for 2-vectors and a 2-by-2 matrix.
func quadraticForm(x [2]float64, m *mat.Matrix, y [2]float64) float64 {
	return x[0]*(m.At(0, 0)*y[0]+m.At(0, 1)*y[1]) +
		x[1]*(m.At(1, 0)*y[0]+m.At(1, 1)*y[1])
}
