package sketch

import (
	"encoding/binary"
	"math"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// FuzzSketchBoundSoundness is the sketch tier's oracle, in the style of the
// btree/stats fuzz oracles: on fuzzed windows and sketch widths it asserts
//
//  1. bound soundness — the sketched lower/upper bounds contain the exact
//     covariance and dot product of every pair, and
//  2. sweep equivalence — classifying the exact value's membership in a
//     fuzzed interval agrees with the prescreen verdict: a DefiniteIn pair's
//     exact value satisfies the predicate, a DefiniteOut pair's does not.
//
// Together these are exactly the properties the filter-and-refine executor
// relies on for byte-identical results.
func FuzzSketchBoundSoundness(f *testing.F) {
	seed := func(shape []byte, vals ...float64) []byte {
		buf := append([]byte{}, shape...)
		for _, v := range vals {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf = append(buf, b[:]...)
		}
		return buf
	}
	// shape bytes: n, m, d; then 2 interval endpoints + n·m samples.
	f.Add(seed([]byte{2, 4, 1}, -1, 1, 0.5, 1.5, -0.5, 2, 1, 1, -1, 3))
	f.Add(seed([]byte{3, 5, 2}, 0, 2,
		1, 2, 3, 4, 5, 2, 2, 2, 2, 2, -1, 0, 1, 0, -1))
	f.Add(seed([]byte{2, 6, 15}, -0.1, 0.1,
		0.5, -0.5, 0.25, 0.75, -1, 1, 1e3, -1e3, 12.5, 0, 7, -7))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%4  // 2..5 series
		m := 4 + int(data[1])%20 // 4..23 samples
		d := 1 + int(data[2])%24 // 1..24 kept coefficients (clamp exercised)
		vals, ok := decodeFuzzFloats(data[3:], 2+n*m)
		if !ok {
			return
		}
		lo, hi := vals[0], vals[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		iv := interval.Between(lo, hi)
		cols := make([][]float64, n)
		for v := 0; v < n; v++ {
			cols[v] = vals[2+v*m : 2+(v+1)*m]
		}
		dm, err := timeseries.NewDataMatrix(cols)
		if err != nil {
			return // e.g. rejected samples; shapes the engine never sees
		}
		kern, err := kernel.FromData(dm)
		if err != nil {
			t.Fatal(err)
		}
		mom, err := kern.Moments()
		if err != nil {
			t.Fatal(err)
		}
		s := Build(kern, mom, Options{Enabled: true, Coefficients: d}, 1, &Counters{})

		pairs := allPairs(n)
		tLo := make([]float64, len(pairs))
		tHi := make([]float64, len(pairs))
		for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
			if !s.BoundBlock(base, mom, pairs, tLo, tHi) {
				t.Fatalf("BoundBlock(%v) unsupported", base)
			}
			for i, p := range pairs {
				var exact float64
				var err error
				if base == measure.Covariance {
					exact, err = measure.CovarianceOf(cols[p.U], cols[p.V])
				} else {
					exact, err = measure.DotProductOf(cols[p.U], cols[p.V])
				}
				if err != nil {
					t.Fatalf("exact %v(%v): %v", base, p, err)
				}
				if !(tLo[i] <= exact && exact <= tHi[i]) {
					t.Fatalf("n=%d m=%d d=%d %v pair %v: exact %v outside [%v, %v]",
						n, m, d, base, p, exact, tLo[i], tHi[i])
				}
				switch iv.Classify(tLo[i], tHi[i]) {
				case interval.DefiniteIn:
					if !iv.Contains(exact) {
						t.Fatalf("%v pair %v: DefiniteIn but exact %v outside %v (bound [%v, %v])",
							base, p, exact, iv, tLo[i], tHi[i])
					}
				case interval.DefiniteOut:
					if iv.Contains(exact) {
						t.Fatalf("%v pair %v: DefiniteOut but exact %v inside %v (bound [%v, %v])",
							base, p, exact, iv, tLo[i], tHi[i])
					}
				}
			}
		}
	})
}

// decodeFuzzFloats turns fuzz bytes into finite, moderately sized floats —
// the same shaping the measure oracle uses.
func decodeFuzzFloats(data []byte, n int) ([]float64, bool) {
	if len(data) < 8*n {
		return nil, false
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i : 8*i+8]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		out[i] = math.Mod(v, 1e6)
		out[i] = math.Round(out[i]*1e6) / 1e6
	}
	return out, true
}
