package core

import (
	"math"
	"math/rand"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/stats"
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
		m := stats.Correlation

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
