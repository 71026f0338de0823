package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// buildDegenerateEngine builds an engine over a window whose series 0 is
// constant: every normalized measure (correlation, cosine on the centered
// family, …) is undefined for pairs involving it.
func buildDegenerateEngine(t *testing.T, parallelism int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const n, m = 10, 64
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			if i == 0 {
				rows[i][j] = 3 // constant: zero variance, zero normalizer
			} else {
				rows[i][j] = math.Sin(float64(j)/4+float64(i)) + rng.NormFloat64()*0.1
			}
		}
	}
	d, err := timeseries.NewDataMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(d, Config{Clusters: 3, Seed: 9, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func touchesConstant(p timeseries.Pair) bool { return p.U == 0 || p.V == 0 }

// TestDegenerateNaNOracle pins the engine's single NaN semantics (see
// measure.OrNaN) across every execution path: a zero-variance series makes
// the correlation of its pairs undefined, which must surface as NaN in MEC
// sweeps and matrices, and those pairs must silently drop out of interval and
// top-k results — identically for the naive (blocked and scalar), affine and
// index methods, on the single and the batched path.
func TestDegenerateNaNOracle(t *testing.T) {
	for _, p := range []int{1, 4} {
		e := buildDegenerateEngine(t, p)
		m := measure.Correlation

		// MEC sweeps: NaN exactly on the degenerate pairs, both naive variants
		// and the affine path agreeing on positions.
		blocked, err := e.PairwiseSweepNaive(m)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := e.pairwiseSweepNaiveScalar(m)
		if err != nil {
			t.Fatal(err)
		}
		affine, err := e.PairwiseSweepAffine(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, pair := range blocked.Pairs {
			want := touchesConstant(pair)
			for _, sweep := range []struct {
				name string
				vals []float64
			}{{"blocked", blocked.Values}, {"scalar", scalar.Values}, {"affine", affine.Values}} {
				if got := math.IsNaN(sweep.vals[i]); got != want {
					t.Fatalf("P=%d %s sweep pair %v: IsNaN=%v, want %v", p, sweep.name, pair, got, want)
				}
			}
		}

		// MEC matrices: both methods report NaN on row/column 0, including
		// the self-pair diagonal entry.
		ids := e.Data().IDs()
		for _, method := range []Method{MethodNaive, MethodAffine} {
			matrix, err := e.ComputePairwise(m, ids, method)
			if err != nil {
				t.Fatalf("P=%d ComputePairwise(%v): %v", p, method, err)
			}
			for i := range matrix {
				for j := range matrix[i] {
					want := i == 0 || j == 0
					if got := math.IsNaN(matrix[i][j]); got != want {
						t.Fatalf("P=%d %v matrix[%d][%d]: IsNaN=%v, want %v", p, method, i, j, got, want)
					}
				}
			}
		}

		// Interval and top-k queries: degenerate pairs never match, under any
		// method, single or batched.
		iv := interval.Between(-1, 1) // the whole correlation range
		for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
			single, err := e.Interval(m, iv, method)
			if err != nil {
				t.Fatalf("P=%d Interval(%v): %v", p, method, err)
			}
			batched, err := e.IntervalBatch([]IntervalQuery{{Measure: m, Interval: iv}}, method)
			if err != nil {
				t.Fatalf("P=%d IntervalBatch(%v): %v", p, method, err)
			}
			for _, res := range [][]timeseries.Pair{single.Pairs, batched[0].Pairs} {
				for _, pair := range res {
					if touchesConstant(pair) {
						t.Fatalf("P=%d %v interval result contains degenerate pair %v", p, method, pair)
					}
				}
			}

			k := e.Info().NumPairs // large enough to admit every defined pair
			top, err := e.TopK(m, k, true, method)
			if err != nil {
				t.Fatalf("P=%d TopK(%v): %v", p, method, err)
			}
			topBatched, err := runSpecs(e, []plan.QuerySpec{plan.TopK(m, k, true)}, method)
			if err != nil {
				t.Fatalf("P=%d TopKBatch(%v): %v", p, method, err)
			}
			wantLen := 0
			for _, pair := range blocked.Pairs {
				if !touchesConstant(pair) {
					wantLen++
				}
			}
			for _, res := range []QueryResult{top, topBatched[0]} {
				if len(res.Pairs) != wantLen {
					t.Fatalf("P=%d %v top-k returned %d pairs, want %d (degenerate pairs excluded)",
						p, method, len(res.Pairs), wantLen)
				}
				for i, pair := range res.Pairs {
					if touchesConstant(pair) {
						t.Fatalf("P=%d %v top-k contains degenerate pair %v", p, method, pair)
					}
					if math.IsNaN(res.Values[i]) {
						t.Fatalf("P=%d %v top-k ranked a NaN value", p, method)
					}
				}
			}
		}
	}
}

// TestDegenerateSweepStageParity runs the stage parity battery over degenerate
// data — a constant series (zero variance), an all-zero series whose samples
// alternate ±0 (zero norm) — where normalised measures are undefined and the
// bound providers have nothing definite to say: such pairs must take the exact
// path and drop out of every result exactly as the scalar oracle drops them,
// with the cache and the sketch on and off, cold and across Advances.
func TestDegenerateSweepStageParity(t *testing.T) {
	const n, m, rounds = 10, 64, 3
	rng := rand.New(rand.NewSource(5))
	sample := func(v, t int) float64 {
		switch v {
		case 0:
			return 3
		case 1:
			return math.Copysign(0, float64(1-2*(t%2)))
		default:
			return math.Sin(float64(t)/4+float64(v)) + rng.NormFloat64()*0.1
		}
	}
	rows := make([][]float64, n)
	for v := range rows {
		rows[v] = make([]float64, m)
		for t := range rows[v] {
			rows[v][t] = sample(v, t)
		}
	}
	ticks := make([][]float64, rounds)
	for r := range ticks {
		ticks[r] = make([]float64, n)
		for v := range ticks[r] {
			ticks[r][v] = sample(v, m+r)
		}
	}
	build := func(cfg Config) *Engine {
		d, err := timeseries.NewDataMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clusters, cfg.Seed = 3, 9
		e, err := Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build(Config{})
	engines := map[string]*Engine{
		"plain":        build(Config{Parallelism: 2}),
		"cache":        build(Config{Cache: qcache.Options{Enabled: true}}),
		"sketch":       build(Config{Sketch: sketch.Options{Enabled: true, Coefficients: 4}}),
		"cache+sketch": build(Config{Parallelism: 4, Cache: qcache.Options{Enabled: true}, Sketch: sketch.Options{Enabled: true, Coefficients: 4}}),
	}
	for round := 0; round <= rounds; round++ {
		if round > 0 {
			advanceBoth(t, ticks[round-1:round], ref)
			for _, e := range engines {
				advanceBoth(t, ticks[round-1:round], e)
			}
		}
		oracle := newScalarOracle(t, ref)
		undefined := 0
		for _, v := range oracle.values[measure.Cosine] {
			if math.IsNaN(v) {
				undefined++
			}
		}
		if undefined != n-1 {
			t.Fatalf("epoch %d: %d undefined cosine values, want the %d pairs of the zero series", round, undefined, n-1)
		}
		for name, e := range engines {
			for _, m := range pairwiseMeasures() {
				specs := stageSpecs(m, oracle.values[m])
				got, err := runSpecs(e, specs, MethodNaive)
				if err != nil {
					t.Fatalf("epoch %d %s %v: %v", round, name, m, err)
				}
				for i, spec := range specs {
					mustEqualResults(t, fmt.Sprintf("epoch %d %s %v", round, name, spec), got[i], oracle.answer(spec, nil))
				}
			}
		}
	}
}
