package core

import (
	"math"
	"slices"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

// pairwiseMeasures returns every registered T- and D-measure — the full
// surface the blocked kernels must reproduce.
func pairwiseMeasures() []measure.Measure {
	return append(measure.ByClass(measure.DispersionClass), measure.ByClass(measure.DerivedClass)...)
}

// scalarSweep is the scalar reference of the W_N sweep: every pair of the
// epoch's window in canonical order, one at a time through measure.EvalPair,
// NaN where the measure is undefined — the oracle the parity tests compare
// the blocked kernels against.
func scalarSweep(e *Engine, m measure.Measure) ([]timeseries.Pair, []float64, error) {
	st := e.escapedState()
	if _, err := pairwiseSpec(m); err != nil {
		return nil, nil, err
	}
	pairs := st.data.AllPairs()
	values := make([]float64, len(pairs))
	for i, pair := range pairs {
		v, err := measure.OrNaN(evalPair(st, m, pair))
		if err != nil {
			return nil, nil, err
		}
		values[i] = v
	}
	return pairs, values, nil
}

// evalPair is measure.EvalPair over the epoch's raw series: the scalar oracle
// of one pair.
func evalPair(st *engineState, m measure.Measure, pair timeseries.Pair) (float64, error) {
	su, err := st.data.Series(pair.U)
	if err != nil {
		return 0, err
	}
	sv, err := st.data.Series(pair.V)
	if err != nil {
		return 0, err
	}
	return measure.EvalPair(m, su, sv)
}

// pipelineSweep asks the query pipeline for m over every pair of e's current
// window: one MEC spec over every series id, as a Batch by method.  It
// returns the matrix's strict upper triangle row by row — the canonical pair
// order of DataMatrix.AllPairs.
func pipelineSweep(e *Engine, m measure.Measure, method Method) ([]float64, error) {
	ids := e.Data().IDs()
	out, err := e.Batch([]plan.QuerySpec{ComputeSpec(m, ids)}, method)
	if err != nil {
		return nil, err
	}
	values := make([]float64, 0, len(ids)*(len(ids)-1)/2)
	for i, row := range out[0].Matrix {
		values = append(values, row[i+1:]...)
	}
	return values, nil
}

// TestBlockedSweepBitIdenticalToScalar is the tentpole contract: the blocked
// float64 kernels must reproduce the scalar W_N sweep bit for bit, for every
// pairwise measure, at every parallelism level.
func TestBlockedSweepBitIdenticalToScalar(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		e := buildTestEngine(t, Config{Clusters: 4, Seed: 31, Parallelism: p})
		for _, m := range pairwiseMeasures() {
			pairs, want, err := scalarSweep(e, m)
			if err != nil {
				t.Fatalf("P=%d %v scalar sweep: %v", p, m, err)
			}
			got, err := pipelineSweep(e, m, MethodNaive)
			if err != nil {
				t.Fatalf("P=%d %v blocked sweep: %v", p, m, err)
			}
			if len(got) != len(want) {
				t.Fatalf("P=%d %v: %d values, want %d", p, m, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("P=%d %v pair %v: blocked %x (%v) != scalar %x (%v)",
						p, m, pairs[i],
						math.Float64bits(got[i]), got[i],
						math.Float64bits(want[i]), want[i])
				}
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
		pairs, values, err := scalarSweep(e, m)
		if err != nil {
			t.Fatalf("scalar sweep of %v: %v", m, err)
		}
		o.pairs, o.values[m] = pairs, values
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
