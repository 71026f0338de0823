package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of two equally sized vectors.
// It panics if the lengths differ; vector helpers are used in hot inner loops
// where returning an error on every call would be both noisy and costly, and
// a length mismatch is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Norm returns the Euclidean (L2) norm of v, guarding against overflow.
func Norm(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			ssq = 1 + ssq*(scale/ax)*(scale/ax)
			scale = ax
		} else {
			ssq += (ax / scale) * (ax / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Normalize returns v scaled to unit length.  A zero vector is returned
// unchanged (as a copy).
func Normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	n := Norm(v)
	if n == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

// SubVec returns a-b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// AddVec returns a+b as a new slice.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v + b[i]
	}
	return out
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Project returns the orthogonal projection of x onto the (not necessarily
// unit-length) direction r, i.e. ((r·x)/(r·r)) r.  If r is the zero vector the
// projection is the zero vector.
func Project(x, r []float64) []float64 {
	rr := Dot(r, r)
	out := make([]float64, len(x))
	if rr == 0 {
		return out
	}
	alpha := Dot(r, x) / rr
	for i, v := range r {
		out[i] = alpha * v
	}
	return out
}

// ProjectionError returns the Euclidean distance between x and its orthogonal
// projection onto the direction r.  This is the `proj` quantity used by the
// AFCLST assignment phase.
func ProjectionError(x, r []float64) float64 {
	p := Project(x, r)
	return Norm(SubVec(x, p))
}

// VecEqual reports whether two vectors have the same length and all elements
// are within tol of each other.
func VecEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Abs(v-b[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether v contains a NaN or infinity.
func HasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
