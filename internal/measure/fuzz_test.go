package measure

import (
	"encoding/binary"
	"math"
	"testing"
)

// This fuzz target is the transform-algebra oracle behind Spec.Lift's
// monotone lift: for every indexable D-measure it checks, on fuzzed inputs,
// that the transform is monotone in the base T value (in the spec's declared
// direction) for a fixed parameter — the property that lets the lift
// evaluate it at the two ends of a definite T interval and bracket every
// value inside it.  The decreasing transforms (euclidean, mean-squared-diff,
// angular) exercise the mirrored branch.

// decodeFuzzFloats turns fuzz bytes into finite, moderately sized floats.
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

func FuzzTransformInverseOracle(f *testing.F) {
	seed := func(vals ...float64) []byte {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		return buf
	}
	f.Add(seed(1.0, 2.0, 0.5, 4.0, 0.25))
	f.Add(seed(-3.0, 0.1, 7.5, 2.0, 0.9))
	f.Add(seed(100, 50, 25, 12.5, -0.5))
	f.Add(seed(0, 0, 0, 1, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		vals, ok := decodeFuzzFloats(data, 4)
		if !ok {
			return
		}
		tBase, tDelta, uLoRaw, uHiRaw := vals[0], vals[1], vals[2], vals[3]
		tDelta = math.Abs(tDelta)
		const m = 16

		for _, sp := range Specs() {
			if !sp.Derived() || !sp.Indexable {
				continue
			}
			for _, u := range []float64{math.Abs(uLoRaw), math.Abs(uHiRaw)} {
				v1, err1 := sp.Eval(tBase, u, m)
				v2, err2 := sp.Eval(tBase+tDelta, u, m)
				if err1 != nil || err2 != nil {
					continue
				}
				// Monotonicity in t (weak: clamps flatten the tails).
				if sp.Decreasing && v2 > v1+1e-9*(1+math.Abs(v1)) {
					t.Fatalf("%v: transform not decreasing: f(%v)=%v < f(%v)=%v (u=%v)",
						sp.Name, tBase, v1, tBase+tDelta, v2, u)
				}
				if !sp.Decreasing && v2 < v1-1e-9*(1+math.Abs(v1)) {
					t.Fatalf("%v: transform not increasing: f(%v)=%v > f(%v)=%v (u=%v)",
						sp.Name, tBase, v1, tBase+tDelta, v2, u)
				}
			}
		}
	})
}
