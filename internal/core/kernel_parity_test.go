package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// pairwiseMeasures returns every registered T- and D-measure — the full
// surface the blocked kernels must reproduce.
func pairwiseMeasures() []measure.Measure {
	return append(measure.ByClass(measure.DispersionClass), measure.ByClass(measure.DerivedClass)...)
}

// pairwiseSweepNaiveScalar is the scalar reference implementation of the W_N
// sweep: one pair at a time through the measure registry, exactly as the
// engine computed it before the blocked kernels — the oracle the kernel
// parity tests compare against.
func (e *Engine) pairwiseSweepNaiveScalar(m measure.Measure) (*PairSweepResult, error) {
	st := e.escapedState()
	if _, err := pairwiseSpec(m); err != nil {
		return nil, err
	}
	pairs := st.data.AllPairs()
	values := make([]float64, len(pairs))
	err := par.DoBlocks(len(pairs), st.par, func(_ int, blk par.Block) error {
		for i := blk.Lo; i < blk.Hi; i++ {
			v, err := measure.OrNaN(st.naive.PairValue(m, pairs[i]))
			if err != nil {
				return err
			}
			values[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PairSweepResult{Pairs: pairs, Values: values}, nil
}

// TestBlockedSweepBitIdenticalToScalar is the tentpole contract: the blocked
// float64 kernels must reproduce the scalar W_N sweep bit for bit, for every
// pairwise measure, at every parallelism level.
func TestBlockedSweepBitIdenticalToScalar(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		e := buildTestEngine(t, Config{Clusters: 4, Seed: 31, Parallelism: p})
		for _, m := range pairwiseMeasures() {
			want, err := e.pairwiseSweepNaiveScalar(m)
			if err != nil {
				t.Fatalf("P=%d %v scalar sweep: %v", p, m, err)
			}
			got, err := e.PairwiseSweepNaive(m)
			if err != nil {
				t.Fatalf("P=%d %v blocked sweep: %v", p, m, err)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("P=%d %v: %d values, want %d", p, m, len(got.Values), len(want.Values))
			}
			for i := range want.Values {
				if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
					t.Fatalf("P=%d %v pair %v: blocked %x (%v) != scalar %x (%v)",
						p, m, got.Pairs[i],
						math.Float64bits(got.Values[i]), got.Values[i],
						math.Float64bits(want.Values[i]), want.Values[i])
				}
			}
		}
	}
}

// TestAffineSweepStableErrorWithBadPivots is the regression test for the
// map-iteration-order bug: when several pivots are broken, the affine sweep
// must surface the error of the canonically-first bad pivot — the same one on
// every run, at every parallelism level — not whichever pivot a goroutine
// happened to report first.
func TestAffineSweepStableErrorWithBadPivots(t *testing.T) {
	const wantPivot = "(0, ω=99)" // sorts before (1, ω=98) in (Common, Cluster) order
	for _, p := range []int{1, 2, 8} {
		for run := 0; run < 5; run++ {
			e := buildTestEngine(t, Config{Clusters: 4, Seed: 33, Parallelism: p})
			// The same epoch over a result in which one relationship each of
			// series 0 and 1 names a cluster that does not exist.
			bad := *e.escapedState()
			assignments := slices.Clone(bad.rel.AssignmentList())
			rels := make([]*symex.Relationship, len(assignments))
			for slot := range rels {
				rels[slot] = bad.rel.At(slot)
			}
			for common, cluster := range map[timeseries.SeriesID]int{0: 99, 1: 98} {
				slot := slices.IndexFunc(assignments, func(a symex.Assignment) bool { return a.Pivot.Common == common })
				assignments[slot].Pivot.Cluster = cluster
				moved := *rels[slot]
				moved.Pivot = assignments[slot].Pivot
				rels[slot] = &moved
			}
			layout, err := symex.NewLayout(bad.data.NumSeries(), assignments)
			if err != nil {
				t.Fatal(err)
			}
			bad.rel = symex.NewResult(layout, bad.rel.Clustering, rels)
			_, err = bad.pairwiseSweepAffine(measure.Covariance)
			if err == nil {
				t.Fatalf("P=%d run %d: expected error from bad pivots", p, run)
			}
			if !strings.Contains(err.Error(), wantPivot) {
				t.Fatalf("P=%d run %d: err = %q, want the canonically-first bad pivot %s",
					p, run, err, wantPivot)
			}
		}
	}
}

// scalarOracle holds the scalar W_N value of every pair of the full universe
// for every pairwise measure at one epoch, and answers interval and top-k
// specs from them by definition: a filter in canonical pair order, a sort by
// (value, pair identity).  It shares no code with the sweep stage.
type scalarOracle struct {
	pairs  []timeseries.Pair
	values map[measure.Measure][]float64
}

func newScalarOracle(t testing.TB, e *Engine) *scalarOracle {
	t.Helper()
	o := &scalarOracle{values: make(map[measure.Measure][]float64)}
	for _, m := range pairwiseMeasures() {
		sweep, err := e.pairwiseSweepNaiveScalar(m)
		if err != nil {
			t.Fatalf("scalar sweep of %v: %v", m, err)
		}
		o.pairs, o.values[m] = sweep.Pairs, sweep.Values
	}
	return o
}

// answer derives the result of spec over the given universe (nil = every
// pair).
func (o *scalarOracle) answer(spec plan.QuerySpec, universe map[timeseries.Pair]bool) QueryResult {
	type row struct {
		pair  timeseries.Pair
		value float64
	}
	var rows []row
	for i, pair := range o.pairs {
		v := o.values[spec.Measure][i]
		if universe != nil && !universe[pair] || math.IsNaN(v) {
			continue
		}
		if spec.Kind == plan.KindTopK || spec.Interval.Contains(v) {
			rows = append(rows, row{pair, v})
		}
	}
	var res QueryResult
	if spec.Kind == plan.KindTopK {
		slices.SortStableFunc(rows, func(a, b row) int {
			if a.value != b.value {
				if (a.value > b.value) == spec.Largest {
					return -1
				}
				return 1
			}
			return 0 // stable: canonical pair order breaks ties
		})
		rows = rows[:min(spec.K, len(rows))]
		res.Values = make([]float64, 0, len(rows))
	}
	for _, r := range rows {
		res.Pairs = append(res.Pairs, r.pair)
		if spec.Kind == plan.KindTopK {
			res.Values = append(res.Values, r.value)
		}
	}
	return res
}
