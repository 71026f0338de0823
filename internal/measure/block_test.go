package measure_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// This file pins the block forms of the D-measures (Spec.ParamBlock,
// ValueBlock, BoundsBlock) and the one-end-first classification built on
// them (Spec.Classify) against the scalar formulas the measures were written
// in before, kept here as the oracle: the block forms must give their bits
// exactly, NaN where the scalar form reported ErrZeroNormalizer, and Classify
// must give every pair the verdict both lifted ends give.

// scalarOracle is one D-measure's scalar formulas: the separable parameter,
// the transform with its ErrZeroNormalizer control flow and, for Jaccard,
// the custom bound (nil elsewhere: the monotone endpoint lift).
type scalarOracle struct {
	param  func(u, v measure.SeriesStat) float64
	value  func(t, u float64, m int) (float64, error)
	bounds func(tLo, tHi, u float64, m int) (float64, float64, bool)
}

func oracleClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func oracleRatio(t, u float64, _ int) (float64, error) {
	if u == 0 {
		return 0, measure.ErrZeroNormalizer
	}
	return t / u, nil
}

func oracleNormProduct(u, v measure.SeriesStat) float64 { return math.Sqrt(u.SqNorm * v.SqNorm) }
func oracleNormSum(u, v measure.SeriesStat) float64     { return u.SqNorm + v.SqNorm }

var scalarOracles = map[measure.Measure]scalarOracle{
	measure.Correlation: {
		param: func(u, v measure.SeriesStat) float64 { return math.Sqrt(u.Variance * v.Variance) },
		value: func(t, u float64, _ int) (float64, error) {
			if u == 0 {
				return 0, measure.ErrZeroNormalizer
			}
			return oracleClamp(t/u, -1, 1), nil
		},
	},
	measure.Cosine: {param: oracleNormProduct, value: oracleRatio},
	measure.Jaccard: {
		param: oracleNormSum,
		value: func(t, u float64, _ int) (float64, error) {
			denom := u - t
			if denom == 0 {
				return 0, measure.ErrZeroNormalizer
			}
			return t / denom, nil
		},
		bounds: func(tLo, tHi, u float64, m int) (float64, float64, bool) {
			if !(tLo <= tHi) || math.IsNaN(u) || u <= 0 {
				return 0, 0, false
			}
			if !(tHi < u) && !(tLo > u) {
				return 0, 0, false
			}
			lo := tLo / (u - tLo)
			hi := tHi / (u - tHi)
			if math.IsNaN(lo) || math.IsNaN(hi) {
				return 0, 0, false
			}
			return lo, hi, true
		},
	},
	measure.Dice: {
		param: func(u, v measure.SeriesStat) float64 { return (u.SqNorm + v.SqNorm) / 2 },
		value: oracleRatio,
	},
	measure.HarmonicMean: {
		param: func(u, v measure.SeriesStat) float64 {
			sum := u.SqNorm + v.SqNorm
			if sum == 0 {
				return 0
			}
			return u.SqNorm * v.SqNorm / sum
		},
		value: oracleRatio,
	},
	measure.EuclideanDistance: {
		param: oracleNormSum,
		value: func(t, u float64, _ int) (float64, error) {
			diff := u - 2*t
			if diff < 0 {
				diff = 0
			}
			return math.Sqrt(diff), nil
		},
	},
	measure.MeanSquaredDifference: {
		param: oracleNormSum,
		value: func(t, u float64, m int) (float64, error) {
			if m <= 0 {
				return 0, measure.ErrEmptyInput
			}
			diff := u - 2*t
			if diff < 0 {
				diff = 0
			}
			return diff / float64(m), nil
		},
	},
	measure.AngularDistance: {
		param: oracleNormProduct,
		value: func(t, u float64, _ int) (float64, error) {
			if u == 0 {
				return 0, measure.ErrZeroNormalizer
			}
			return math.Acos(oracleClamp(t/u, -1, 1)) / math.Pi, nil
		},
	},
}

// oracleBoundValue is the two-end lift in scalar form.
func oracleBoundValue(sp *measure.Spec, o scalarOracle, tLo, tHi, u float64, m int) (float64, float64, bool) {
	if !(tLo <= tHi) {
		return 0, 0, false
	}
	if o.bounds != nil {
		return o.bounds(tLo, tHi, u, m)
	}
	if !sp.Indexable {
		return 0, 0, false
	}
	a, err := o.value(tLo, u, m)
	if err != nil {
		return 0, 0, false
	}
	b, err := o.value(tHi, u, m)
	if err != nil || math.IsNaN(a) || math.IsNaN(b) {
		return 0, 0, false
	}
	if sp.Decreasing {
		return b, a, true
	}
	return a, b, true
}

// sameValue reports bit equality, with every NaN equal to every other.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// edgeValues are the awkward inputs of a transform or a parameter: zeros of
// both signs, infinities, NaN, subnormals, the 2^±500 scales, and a few
// ordinary values of both signs.
func edgeValues(rng *rand.Rand) []float64 {
	v := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		0x1p-500, -0x1p-500, 0x1p500, -0x1p500, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 2}
	for range 6 {
		v = append(v, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return v
}

// derivedSpecs returns every registered D-measure and its oracle.
func derivedSpecs(t *testing.T) []*measure.Spec {
	t.Helper()
	var out []*measure.Spec
	for _, sp := range measure.Specs() {
		if !sp.Derived() {
			continue
		}
		if _, ok := scalarOracles[sp.ID]; !ok {
			t.Fatalf("%v has no scalar oracle in this file", sp.Name)
		}
		out = append(out, sp)
	}
	return out
}

// TestBlockFormsMatchScalarOracle checks ParamBlock, ValueBlock and Lift of
// every registered D-measure against its scalar formulas, bit for bit, over
// the edge inputs (Jaccard's pole t = u among them) and m = 0, 1 and 360; and
// that the scalar wrappers Param, EvalOrNaN and Eval are the block forms.
func TestBlockFormsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	edges := edgeValues(rng)
	var ts, us []float64
	for _, a := range edges {
		for _, b := range edges {
			ts, us = append(ts, a), append(us, b)
		}
		ts, us = append(ts, a), append(us, a) // the Jaccard pole t = u
	}
	var su, sv []measure.SeriesStat
	for _, a := range edges {
		for _, b := range edges {
			su = append(su, measure.SeriesStat{Variance: math.Abs(a), SqNorm: a})
			sv = append(sv, measure.SeriesStat{Variance: b, SqNorm: math.Abs(b)})
		}
	}
	for _, sp := range derivedSpecs(t) {
		o := scalarOracles[sp.ID]
		u := make([]float64, len(su))
		sp.ParamBlock(su, sv, u)
		for i := range u {
			if want := o.param(su[i], sv[i]); !sameValue(u[i], want) {
				t.Fatalf("%v: ParamBlock(%+v, %+v) = %v, oracle %v", sp.Name, su[i], sv[i], u[i], want)
			}
			if got := sp.Param(su[i], sv[i]); !sameValue(got, u[i]) {
				t.Fatalf("%v: Param(%+v, %+v) = %v, ParamBlock %v", sp.Name, su[i], sv[i], got, u[i])
			}
		}
		for _, m := range []int{0, 1, 360} {
			out := make([]float64, len(ts))
			blockErr := sp.ValueBlock(ts, us, m, out)
			for i := range ts {
				want, err := o.value(ts[i], us[i], m)
				if err != nil && !errors.Is(err, measure.ErrZeroNormalizer) {
					if !errors.Is(blockErr, err) {
						t.Fatalf("%v m=%d: block error %v, oracle %v", sp.Name, m, blockErr, err)
					}
					continue
				}
				if blockErr != nil {
					t.Fatalf("%v m=%d: block error %v, oracle none", sp.Name, m, blockErr)
				}
				if err != nil {
					want = math.NaN()
				}
				if !sameValue(out[i], want) {
					t.Fatalf("%v m=%d: ValueBlock(%v, %v) = %v, oracle %v", sp.Name, m, ts[i], us[i], out[i], want)
				}
				if got, _ := sp.EvalOrNaN(ts[i], us[i], m); !sameValue(got, want) {
					t.Fatalf("%v m=%d: EvalOrNaN(%v, %v) = %v, oracle %v", sp.Name, m, ts[i], us[i], got, want)
				}
				// Eval reports every undefined value as ErrZeroNormalizer —
				// also where the scalar form let a NaN through (an infinite t
				// over an infinite u).
				got, gotErr := sp.Eval(ts[i], us[i], m)
				if math.IsNaN(want) != errors.Is(gotErr, measure.ErrZeroNormalizer) || (gotErr == nil && !sameValue(got, want)) {
					t.Fatalf("%v m=%d: Eval(%v, %v) = %v, %v; oracle %v", sp.Name, m, ts[i], us[i], got, gotErr, want)
				}
			}
			for _, u := range edges {
				var tLo, tHi, uu []float64
				for _, a := range edges {
					for _, b := range edges {
						tLo, tHi, uu = append(tLo, a), append(tHi, b), append(uu, u)
					}
				}
				lo, hi := make([]float64, len(tLo)), make([]float64, len(tLo))
				sp.Lift(tLo, tHi, uu, m, lo, hi)
				for i := range tLo {
					wLo, wHi, ok := oracleBoundValue(sp, o, tLo[i], tHi[i], u, m)
					gotOK := !math.IsNaN(lo[i]) && !math.IsNaN(hi[i])
					if gotOK != ok || (ok && (!sameValue(lo[i], wLo) || !sameValue(hi[i], wHi))) {
						t.Fatalf("%v m=%d: Lift([%v, %v], u=%v) = [%v, %v], oracle [%v, %v] ok=%v",
							sp.Name, m, tLo[i], tHi[i], u, lo[i], hi[i], wLo, wHi, ok)
					}
				}
			}
		}
	}
}

// TestClassifySteadyContract checks what Spec.Classify's shortcut rests on:
// for every indexable D-measure lifted through its ends, wherever u is
// positive and finite the transform is defined at every t, infinite ends
// included, and monotone in t in its declared direction.
func TestClassifySteadyContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ts []float64
	for _, v := range edgeValues(rng) {
		if !math.IsNaN(v) {
			ts = append(ts, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	for range 2000 {
		ts = append(ts, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	slices.Sort(ts)
	var uPos []float64
	for _, v := range edgeValues(rng) {
		if v > 0 && v <= math.MaxFloat64 {
			uPos = append(uPos, v)
		}
	}
	for _, sp := range derivedSpecs(t) {
		if !sp.Indexable || sp.BoundsBlock != nil {
			continue
		}
		for _, u := range uPos {
			// Ratios near every clamp and sign change.
			grid := slices.Clone(ts)
			for _, r := range []float64{-1, -0.5, 0, 0.5, 1} {
				c := r * u
				grid = append(grid, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
			}
			slices.Sort(grid)
			uu := make([]float64, len(grid))
			for i := range uu {
				uu[i] = u
			}
			out := make([]float64, len(grid))
			if err := sp.ValueBlock(grid, uu, 360, out); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if math.IsNaN(v) {
					t.Fatalf("%v: value at t=%v, u=%v is NaN", sp.Name, grid[i], u)
				}
				if i > 0 && ((!sp.Decreasing && v < out[i-1]) || (sp.Decreasing && v > out[i-1])) {
					t.Fatalf("%v: not monotone at u=%v: f(%v)=%v, f(%v)=%v", sp.Name, u, grid[i-1], out[i-1], grid[i], v)
				}
			}
		}
	}
}

// classifyCase is one pair's definite base-T interval and parameter.
type classifyCase struct{ tLo, tHi, u []float64 }

// windowCases returns, for every pair of a window, its exact base value of
// sp's base widened to three bound widths — the pair-moment column's
// rounding pad, a sketch-like relative band and a degenerate point — and its
// parameter from the naive per-series statistics.
func windowCases(t *testing.T, d *timeseries.DataMatrix, sp *measure.Spec) classifyCase {
	t.Helper()
	stats := make([]measure.SeriesStat, d.NumSeries())
	cols := make([][]float64, d.NumSeries())
	for v := range cols {
		cols[v], _ = d.Series(timeseries.SeriesID(v))
		s, err := measure.NaiveSeriesStat(measure.NeedVariance|measure.NeedSqNorm, cols[v])
		if err != nil {
			t.Fatal(err)
		}
		stats[v] = s
	}
	var c classifyCase
	for _, p := range d.AllPairs() {
		base, err := sp.EvalBase(cols[p.U], cols[p.V])
		if err != nil {
			t.Fatal(err)
		}
		u := sp.Param(stats[p.U], stats[p.V])
		for _, w := range []float64{1e-9, 0.05, 0} {
			r := w * (math.Abs(base) + 1e-12)
			c.tLo, c.tHi, c.u = append(c.tLo, base-r), append(c.tHi, base+r), append(c.u, u)
		}
	}
	return c
}

// predicates returns MET and MER intervals at the given cuts with every
// combination of open and closed ends, and the unbounded interval.
func predicates(cuts []float64) []interval.Interval {
	ivs := []interval.Interval{interval.All()}
	for _, c := range cuts {
		ivs = append(ivs, interval.GreaterThan(c), interval.AtLeast(c), interval.LessThan(c), interval.AtMost(c))
	}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := min(cuts[i], cuts[i+1]), max(cuts[i], cuts[i+1])
		for _, open := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			iv := interval.Between(lo, hi)
			iv.Lo.Open, iv.Hi.Open = open[0], open[1]
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

// checkVerdicts runs Spec.Classify over the cases in kernel-sized chunks,
// some pairs pre-decided, and compares every verdict with iv.Classify of
// Lift's two-end range.
func checkVerdicts(t *testing.T, tag string, sp *measure.Spec, c classifyCase, m int, iv interval.Interval) {
	t.Helper()
	const chunk = 256
	lo, hi := make([]float64, chunk), make([]float64, chunk)
	vLo, vHi := make([]float64, chunk), make([]float64, chunk)
	cls := make([]interval.Class, chunk)
	for at := 0; at < len(c.tLo); at += chunk {
		n := min(chunk, len(c.tLo)-at)
		for i := range cls[:n] {
			cls[i] = interval.Ambiguous
			if i%17 == 16 {
				cls[i] = interval.DefiniteIn // decided by an earlier provider
			}
		}
		pending := sp.Classify(iv, c.tLo[at:at+n], c.tHi[at:at+n], c.u[at:at+n], m, lo[:n], hi[:n], cls[:n])
		sp.Lift(c.tLo[at:at+n], c.tHi[at:at+n], c.u[at:at+n], m, vLo[:n], vHi[:n])
		left := 0
		for i := range n {
			want := interval.DefiniteIn
			if i%17 != 16 {
				want = interval.Ambiguous
				if !math.IsNaN(vLo[i]) && !math.IsNaN(vHi[i]) {
					want = iv.Classify(vLo[i], vHi[i])
				}
			}
			if cls[i] != want {
				t.Fatalf("%s %v %v: pair %d bound [%v, %v] u=%v classified %v, both ends give %v",
					tag, sp.Name, iv, at+i, c.tLo[at+i], c.tHi[at+i], c.u[at+i], cls[i], want)
			}
			if cls[i] == interval.Ambiguous {
				left++
			}
		}
		if pending != left {
			t.Fatalf("%s %v %v: Classify reported %d pending, %d left ambiguous", tag, sp.Name, iv, pending, left)
		}
	}
}

// TestClassifyMatchesTwoEndLift compares Spec.Classify's verdicts — one end
// first for a half-bounded predicate — with the two-end lift's on every pair
// of the benchmark-scale sensor and stock windows, for every pairwise
// measure, at three bound widths and cuts at the 1st, 50th and 95th
// percentile of the measure's values (met exactly by the point bounds), and
// on the edge inputs with cuts from −2^500 to 2^500.
func TestClassifyMatchesTwoEndLift(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale windows")
	}
	sensor, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 168, NumSamples: 360, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stock, err := dataset.GenerateStock(dataset.StockConfig{NumSeries: 128, NumSamples: 720, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range measure.Specs() {
		if !sp.Pairwise() {
			continue
		}
		for _, w := range []struct {
			name string
			d    *timeseries.DataMatrix
		}{{"sensor", sensor}, {"stock", stock}} {
			c := windowCases(t, w.d, sp)
			m := w.d.NumSamples()
			values := make([]float64, 0, len(c.tLo))
			for i := range c.tLo {
				if v, err := sp.EvalOrNaN(c.tLo[i], c.u[i], m); err == nil && !math.IsNaN(v) {
					values = append(values, v)
				}
			}
			slices.Sort(values)
			var cuts []float64
			for _, q := range []float64{0.01, 0.5, 0.95} {
				cuts = append(cuts, values[int(q*float64(len(values)-1))])
			}
			for _, iv := range predicates(cuts) {
				checkVerdicts(t, w.name, sp, c, m, iv)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	edges := edgeValues(rng)
	var c classifyCase
	for _, a := range edges {
		for _, b := range edges {
			for _, u := range edges[:12] { // every zero, infinity, NaN and scale
				c.tLo, c.tHi, c.u = append(c.tLo, a), append(c.tHi, b), append(c.u, u)
			}
		}
	}
	cuts := []float64{-0x1p500, -1, 0, 0.5, 1, 0x1p500}
	for _, sp := range measure.Specs() {
		if !sp.Pairwise() {
			continue
		}
		for _, m := range []int{0, 1, 360} {
			for _, iv := range predicates(cuts) {
				checkVerdicts(t, "edge", sp, c, m, iv)
			}
		}
	}
}
