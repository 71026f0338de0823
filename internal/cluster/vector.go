package cluster

import "math"

// The vector numerics AFCLST owns.  dot, norm, normalize and projectionError
// are the exact route: each carries the bits of its textbook formulation
// (one accumulator in index order; the overflow-safe scaled sum of squares),
// and the assignment guard falls back to projectionError.

// dot returns Σ a_i·b_i, one accumulator in index order.  b must be at least
// as long as a.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// dots writes x·cols[j] into dst[j] for every column, four columns per pass
// over x, each on its own accumulator in index order — the bits of one dot
// call per column.  A short last group repeats its final column.
func dots(x []float64, cols [][]float64, dst []float64) {
	last := len(cols) - 1
	for j := 0; j <= last; j += 4 {
		s0, s1, s2, s3 := dot4(x, cols[j], cols[min(j+1, last)], cols[min(j+2, last)], cols[min(j+3, last)])
		for t, s := range [4]float64{s0, s1, s2, s3} {
			if j+t <= last {
				dst[j+t] = s
			}
		}
	}
}

// dot4 returns x·a, x·b, x·c and x·d in one pass over x.
func dot4(x, a, b, c, d []float64) (float64, float64, float64, float64) {
	a, b, c, d = a[:len(x)], b[:len(x)], c[:len(x)], d[:len(x)]
	var s0, s1, s2, s3 float64
	for i, v := range x {
		s0 += v * a[i]
		s1 += v * b[i]
		s2 += v * c[i]
		s3 += v * d[i]
	}
	return s0, s1, s2, s3
}

// norm returns the Euclidean norm of v by a running scaled sum of squares, so
// it neither overflows nor underflows where the norm itself is representable.
func norm(v []float64) float64 {
	var acc sumSquares
	for _, x := range v {
		acc.add(x)
	}
	return acc.norm()
}

// sumSquares accumulates Σx² as scale²·ssq, scale being the largest |x| so far.
type sumSquares struct{ scale, ssq float64 }

func (a *sumSquares) add(x float64) {
	if x == 0 {
		return
	}
	ax := math.Abs(x)
	if a.scale < ax {
		a.ssq = 1 + a.ssq*(a.scale/ax)*(a.scale/ax)
		a.scale = ax
	} else {
		a.ssq += (ax / a.scale) * (ax / a.scale)
	}
}

func (a *sumSquares) norm() float64 { return a.scale * math.Sqrt(a.ssq) }

// normalize returns v scaled to unit length as a new slice.  A zero vector is
// returned unchanged (as a copy).
func normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	normalizeInto(out, v)
	return out
}

// normalizeInto writes v scaled to unit length into dst, which may be v.
func normalizeInto(dst, v []float64) {
	n := norm(v)
	if n == 0 {
		copy(dst, v)
		return
	}
	for i, x := range v {
		dst[i] = x / n
	}
}

// projectionError returns the Euclidean distance between x and its orthogonal
// projection ((r·x)/(r·r))·r onto the direction r: the norm of the residual
// x_i − α·r_i, formed sample by sample.  Onto a zero direction the projection
// is zero and the error is ‖x‖.
func projectionError(x, r []float64) float64 {
	rr := dot(r, r)
	if rr == 0 {
		return norm(x)
	}
	alpha := dot(r, x) / rr
	r = r[:len(x)]
	var acc sumSquares
	for i, xi := range x {
		acc.add(xi - alpha*r[i])
	}
	return acc.norm()
}
