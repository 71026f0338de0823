// Package dft implements the discrete Fourier transform used by the W_F
// baseline (StatStream-style correlation approximation from the largest DFT
// coefficients, refs [1–3] of the paper) and by the coefficient-sketch
// prescreen tier (internal/sketch).
//
// The forward transform uses an iterative radix-2 FFT when the input length
// is a power of two and Bluestein's algorithm (chirp-z transform) otherwise,
// so series of arbitrary length m — the paper's datasets have m = 720 and
// m = 1950 — are handled in O(m log m).
//
// Transforms of one length share a cached Plan holding the precomputed
// per-stage twiddle factors, the Bluestein chirp and the FFT of the chirp
// filter, plus a pool of convolution scratch buffers; the twiddle tables are
// generated with the same w *= wLen recurrence the direct computation used,
// so planned transforms are bit-identical to the unplanned originals.
package dft

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"sync"

	"affinity/internal/par"
)

// ErrEmptyInput is returned for empty inputs.
var ErrEmptyInput = errors.New("dft: empty input")

// Transform returns the DFT of the real-valued input:
//
//	X[k] = Σ_{t=0}^{m-1} x[t]·exp(-2πi·k·t/m)
func Transform(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	return PlanFor(len(x)).TransformInto(nil, x), nil
}

// Inverse returns the inverse DFT of the input, as a real slice (imaginary
// parts, which should be numerically zero for transforms of real data, are
// discarded).
func Inverse(x []complex128) ([]float64, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	p := PlanFor(len(x))
	out := make([]complex128, len(x))
	p.transform(out, x, true)
	real := make([]float64, len(out))
	scale := 1 / float64(len(out))
	for i, v := range out {
		real[i] = real0(v) * scale
	}
	return real, nil
}

func real0(c complex128) float64 { return real(c) }

// stageTables holds one twiddle table per radix-2 stage: table s covers
// butterfly length 2<<s and stores length/2 twiddles generated by the
// w *= wLen recurrence.
type stageTables [][]complex128

func buildStages(n int, inverse bool) stageTables {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	var st stageTables
	for length := 2; length <= n; length <<= 1 {
		angle := sign * 2 * math.Pi / float64(length)
		wLen := cmplx.Exp(complex(0, angle))
		tw := make([]complex128, length/2)
		w := complex(1, 0)
		for j := range tw {
			tw[j] = w
			w *= wLen
		}
		st = append(st, tw)
	}
	return st
}

// Plan caches everything length-dependent about a DFT of size n: the radix-2
// twiddle tables (forward and inverse), and — for non-power-of-two n — the
// Bluestein chirp factors, the forward FFT of the chirp filter, and a pool of
// convolution scratch buffers.  Plans are safe for concurrent use.
type Plan struct {
	n        int
	pow2     bool
	fwd, inv stageTables // radix-2 stage twiddles (power-of-two n only)

	// Bluestein state (nil/zero for power-of-two n).
	conv                 *Plan // power-of-two plan of length convLen
	convLen              int
	fwdChirp, invChirp   []complex128
	fwdFilter, invFilter []complex128              // forward FFT of the chirp filter b
	scratch              par.Scratch[[]complex128] // convolution buffers of length convLen
}

var planCache sync.Map // int -> *Plan

// PlanFor returns the shared plan for transforms of length n (n >= 1).
// Plans are built once per length and cached for the life of the process.
func PlanFor(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("dft: non-positive transform length %d", n))
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.fwd = buildStages(n, false)
		p.inv = buildStages(n, true)
		return p
	}
	// Convolution length: the smallest power of two >= 2n-1.
	convLen := 1
	for convLen < 2*n-1 {
		convLen <<= 1
	}
	p.convLen = convLen
	p.conv = PlanFor(convLen)
	p.fwdChirp = buildChirp(n, false)
	p.invChirp = buildChirp(n, true)
	p.fwdFilter = p.buildFilter(p.fwdChirp)
	p.invFilter = p.buildFilter(p.invChirp)
	return p
}

// buildChirp returns the chirp factors w[k] = exp(sign*pi*i*k^2/n).
func buildChirp(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	return w
}

// buildFilter returns the forward FFT of the Bluestein filter
// b[k] = conj(w[k]) (mirrored into the tail of the convolution buffer).
func (p *Plan) buildFilter(chirp []complex128) []complex128 {
	b := make([]complex128, p.convLen)
	for k := 0; k < p.n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < p.n; k++ {
		b[p.convLen-k] = cmplx.Conj(chirp[k])
	}
	radix2(b, p.conv.fwd)
	return b
}

// TransformInto computes the forward DFT of the real-valued x (whose length
// must equal the plan's) into dst, reusing dst's storage when it has
// sufficient capacity.  With a caller-kept dst it performs no allocations in
// steady state.
func (p *Plan) TransformInto(dst []complex128, x []float64) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dft: plan length %d, input length %d", p.n, len(x)))
	}
	if cap(dst) < p.n {
		dst = make([]complex128, p.n)
	}
	dst = dst[:p.n]
	if p.pow2 {
		for i, v := range x {
			dst[i] = complex(v, 0)
		}
		radix2(dst, p.fwd)
		return dst
	}
	p.bluesteinReal(dst, x)
	return dst
}

// transform computes the DFT of src into dst (both of the plan's length);
// inverse selects the conjugate transform (without the 1/n scale).
func (p *Plan) transform(dst, src []complex128, inverse bool) {
	if p.pow2 {
		copy(dst, src)
		if inverse {
			radix2(dst, p.inv)
		} else {
			radix2(dst, p.fwd)
		}
		return
	}
	p.bluestein(dst, src, inverse)
}

// radix2 performs an in-place iterative Cooley–Tukey FFT over the precomputed
// stage twiddles; len(x) must match the tables' length.
func radix2(x []complex128, st stageTables) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	s := 0
	for length := 2; length <= n; length <<= 1 {
		tw := st[s]
		s++
		half := length / 2
		for start := 0; start < n; start += length {
			for j := 0; j < half; j++ {
				u := x[start+j]
				v := x[start+j+half] * tw[j]
				x[start+j] = u + v
				x[start+j+half] = u - v
			}
		}
	}
}

// bluesteinReal is the forward chirp-z transform of a real input, writing the
// n output coefficients into dst using one pooled convolution buffer.
func (p *Plan) bluesteinReal(dst []complex128, x []float64) {
	bufp := p.convBuffer()
	a := *bufp
	for k := 0; k < p.n; k++ {
		a[k] = complex(x[k], 0) * p.fwdChirp[k]
	}
	for k := p.n; k < p.convLen; k++ {
		a[k] = 0
	}
	p.convolve(dst, a, p.fwdChirp, p.fwdFilter)
	p.scratch.Put(bufp)
}

// bluestein is the complex-input chirp-z transform.
func (p *Plan) bluestein(dst, src []complex128, inverse bool) {
	chirp, filter := p.fwdChirp, p.fwdFilter
	if inverse {
		chirp, filter = p.invChirp, p.invFilter
	}
	bufp := p.convBuffer()
	a := *bufp
	for k := 0; k < p.n; k++ {
		a[k] = src[k] * chirp[k]
	}
	for k := p.n; k < p.convLen; k++ {
		a[k] = 0
	}
	p.convolve(dst, a, chirp, filter)
	p.scratch.Put(bufp)
}

// convBuffer borrows a convolution buffer of length convLen from the plan's
// scratch; the caller puts it back.
func (p *Plan) convBuffer() *[]complex128 {
	bufp, _ := p.scratch.Get()
	if *bufp == nil {
		*bufp = make([]complex128, p.convLen)
	}
	return bufp
}

// convolve runs the Bluestein convolution a ⊛ b through the power-of-two
// plan and de-chirps the first n outputs into dst.
func (p *Plan) convolve(dst, a, chirp, filter []complex128) {
	radix2(a, p.conv.fwd)
	for i := range a {
		a[i] *= filter[i]
	}
	radix2(a, p.conv.inv)
	invScale := complex(1/float64(p.convLen), 0)
	for k := 0; k < p.n; k++ {
		dst[k] = a[k] * invScale * chirp[k]
	}
}

// Coefficient pairs a DFT coefficient with its frequency index.
type Coefficient struct {
	Index int
	Value complex128
}

// Magnitude returns |Value|.
func (c Coefficient) Magnitude() float64 { return cmplx.Abs(c.Value) }

// TopCoefficients returns the k coefficients with the largest magnitudes
// among indices 1..m-1 (the DC component at index 0 is excluded: the W_F
// baseline normalizes series to zero mean, making it irrelevant), ordered by
// decreasing magnitude.  Ties are broken by the smaller index.
func TopCoefficients(x []float64, k int) ([]Coefficient, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dft: non-positive coefficient count %d", k)
	}
	coeffs, err := Transform(x)
	if err != nil {
		return nil, err
	}
	candidates := make([]Coefficient, 0, len(coeffs)-1)
	for i := 1; i < len(coeffs); i++ {
		candidates = append(candidates, Coefficient{Index: i, Value: coeffs[i]})
	}
	sort.Slice(candidates, func(i, j int) bool {
		mi, mj := candidates[i].Magnitude(), candidates[j].Magnitude()
		if mi != mj {
			return mi > mj
		}
		return candidates[i].Index < candidates[j].Index
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	return candidates[:k], nil
}
