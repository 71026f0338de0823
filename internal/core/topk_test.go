package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

// TestTopKLocationMeasures pins L-measure top-k on every method: a full
// ranking with correctly ordered values, top-k its prefix, and every value the
// method's own per-series oracle — the raw series for the naive method, the
// calibration for the affine and index methods.
func TestTopKLocationMeasures(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	st := e.escapedState()
	n := e.Data().NumSeries()
	for _, m := range measure.ByClass(measure.LocationClass) {
		for _, largest := range []bool{true, false} {
			for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
				full, err := e.TopK(m, n, largest, method)
				if err != nil {
					t.Fatalf("%v %v: %v", m, method, err)
				}
				if len(full.Series) != n || len(full.Values) != n {
					t.Fatalf("%v %v: full ranking has %d series / %d values, want %d",
						m, method, len(full.Series), len(full.Values), n)
				}
				for i := 1; i < len(full.Values); i++ {
					if (largest && full.Values[i] > full.Values[i-1]) ||
						(!largest && full.Values[i] < full.Values[i-1]) {
						t.Fatalf("%v %v: values out of order at %d: %v", m, method, i, full.Values)
					}
					if full.Values[i] == full.Values[i-1] && full.Series[i] < full.Series[i-1] {
						t.Fatalf("%v %v: tie-break by series id violated at %d", m, method, i)
					}
				}
				// Prefix property: top-k is the first k of the full ranking.
				top, err := e.TopK(m, 5, largest, method)
				if err != nil {
					t.Fatal(err)
				}
				for i := range top.Series {
					if top.Series[i] != full.Series[i] || top.Values[i] != full.Values[i] {
						t.Fatalf("%v %v: top-5 is not a prefix of the full ranking", m, method)
					}
				}
				var oracle []float64
				switch method {
				case MethodNaive:
					for _, id := range e.Data().IDs() {
						s, err := e.Data().Series(id)
						if err != nil {
							t.Fatal(err)
						}
						v, err := measure.Lookup(m).EvalLocation(s)
						if err != nil {
							t.Fatal(err)
						}
						oracle = append(oracle, v)
					}
				default:
					oracle, err = st.calibratedLocations(m, e.Data().IDs())
					if err != nil {
						t.Fatal(err)
					}
				}
				for i, id := range full.Series {
					if full.Values[i] != oracle[id] {
						t.Fatalf("%v %v: series %d value %v != oracle %v", m, method, id, full.Values[i], oracle[id])
					}
				}
			}
		}
	}
}

// TestTopKAutoAndExplain pins the planner integration: Explain on a top-k
// spec chooses a concrete method whose direct execution returns the identical
// result, actuals are filled, and Jaccard routes around the index.
func TestTopKAutoAndExplain(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	for _, m := range measure.All() {
		for _, largest := range []bool{true, false} {
			res, p, err := e.Explain(plan.TopK(m, 4, largest), MethodAuto)
			if err != nil {
				t.Fatalf("%v explain: %v", m, err)
			}
			if !p.Method.Concrete() {
				t.Fatalf("%v: planner chose non-concrete %v", m, p.Method)
			}
			if m == measure.Jaccard && p.Method == MethodIndex {
				t.Fatalf("jaccard top-k routed to the index")
			}
			fixed, err := e.TopK(m, 4, largest, p.Method)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%v", res) != fmt.Sprintf("%v", fixed) {
				t.Errorf("%v: auto top-k differs from fixed %v", m, p.Method)
			}
			if p.ActualRows != res.Size() {
				t.Errorf("%v: actual rows %d != size %d", m, p.ActualRows, res.Size())
			}
		}
	}
}

// TestTopKValidation pins the typed errors: k < 1 fails with ErrBadTopK on
// single and batched paths alike, and an index-less engine rejects the index
// method.
func TestTopKValidation(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	for _, k := range []int{0, -3} {
		if _, err := e.TopK(measure.Correlation, k, true, MethodNaive); !errors.Is(err, ErrBadTopK) {
			t.Fatalf("k=%d err = %v, want ErrBadTopK", k, err)
		}
		_, berr := runSpecs(e, []plan.QuerySpec{plan.TopK(measure.Correlation, k, true)}, MethodNaive)
		if !errors.Is(berr, ErrBadTopK) {
			t.Fatalf("batched k=%d err = %v, want ErrBadTopK", k, berr)
		}
	}
	noIdx := buildTestEngine(t, Config{Clusters: 4, Seed: 2, SkipIndex: true})
	if _, err := noIdx.TopK(measure.Correlation, 3, true, MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("SkipIndex top-k err = %v, want ErrNoIndex", err)
	}
	if _, err := noIdx.TopK(measure.Correlation, 3, true, MethodAuto); err != nil {
		t.Fatalf("SkipIndex auto top-k should fall to a sweep, got %v", err)
	}
}

// TestTopKPruningExaminesFewerCandidates pins the point of the best-first
// traversal: for small k the SCAPE path examines strictly fewer sequence-node
// entries than a full sweep touches pairs.
func TestTopKPruningExaminesFewerCandidates(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	idx := e.escapedState().index
	entries := idx.Stats().SequenceNodes
	for _, m := range []measure.Measure{measure.Covariance, measure.Correlation, measure.EuclideanDistance} {
		largest := m != measure.EuclideanDistance // distances: k nearest
		_, _, examined, err := idx.PairTopK(m, 1, largest)
		if err != nil {
			t.Fatal(err)
		}
		if examined >= entries {
			t.Errorf("%v top-1: examined %d of %d entries — no pruning", m, examined, entries)
		}
	}
}

// The sorts on the Advance and query paths run through slices.SortFunc; each
// comparator is a total order (or sorts values whose duplicates are
// identical), so the result is one slice whatever the algorithm.  These tables
// pin it where values tie.

func TestTopSeriesOrderOnTies(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ids := func(xs ...int) []timeseries.SeriesID {
		out := make([]timeseries.SeriesID, len(xs))
		for i, x := range xs {
			out[i] = timeseries.SeriesID(x)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		ids     []timeseries.SeriesID
		values  []float64
		k       int
		largest bool
		want    []timeseries.SeriesID
		wantVal []float64
	}{
		{"zeros of both signs tie by id, largest", ids(4, 2, 3, 1), []float64{0, negZero, 0, negZero}, 4, true,
			ids(1, 2, 3, 4), []float64{negZero, negZero, 0, 0}},
		{"zeros of both signs tie by id, smallest", ids(4, 2, 3, 1), []float64{0, negZero, 0, negZero}, 3, false,
			ids(1, 2, 3), []float64{negZero, negZero, 0}},
		{"equal values around a distinct one", ids(9, 5, 7, 6), []float64{1.5, 1.5, 2, 1.5}, 4, true,
			ids(7, 5, 6, 9), []float64{2, 1.5, 1.5, 1.5}},
		{"NaN never ranks, infinities do", ids(0, 1, 2, 3), []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0}, 4, false,
			ids(1, 3, 2), []float64{math.Inf(-1), 0, math.Inf(1)}},
		{"a repeated id", ids(3, 1, 3), []float64{2, 2, 2}, 3, true,
			ids(1, 3, 3), []float64{2, 2, 2}},
		{"k cuts inside a tie", ids(8, 6, 7), []float64{1, 1, 1}, 2, true,
			ids(6, 7), []float64{1, 1}},
	} {
		got := topSeries(tc.ids, tc.values, tc.k, tc.largest)
		if !slices.Equal(got.Series, tc.want) {
			t.Errorf("%s: series %v, want %v", tc.name, got.Series, tc.want)
		}
		for i := range tc.wantVal {
			if i >= len(got.Values) || math.Float64bits(got.Values[i]) != math.Float64bits(tc.wantVal[i]) {
				t.Errorf("%s: values %v, want %v", tc.name, got.Values, tc.wantVal)
				break
			}
		}
	}
}

func TestSortedStalePairsOrder(t *testing.T) {
	p := func(u, v int) timeseries.Pair {
		return timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)}
	}
	if SortedStalePairs(nil) != nil {
		t.Fatal("a nil stale set (full refit) must stay nil")
	}
	for _, tc := range []struct {
		name string
		in   []timeseries.Pair
		want []timeseries.Pair
	}{
		{"empty", nil, []timeseries.Pair{}},
		{"one row", []timeseries.Pair{p(2, 9), p(2, 3), p(2, 5)}, []timeseries.Pair{p(2, 3), p(2, 5), p(2, 9)}},
		{"one column", []timeseries.Pair{p(4, 7), p(0, 7), p(2, 7)}, []timeseries.Pair{p(0, 7), p(2, 7), p(4, 7)}},
		{"U before V", []timeseries.Pair{p(1, 2), p(0, 9), p(1, 0), p(0, 3)}, []timeseries.Pair{p(0, 3), p(0, 9), p(1, 0), p(1, 2)}},
	} {
		stale := make(map[timeseries.Pair]bool)
		for _, pair := range tc.in {
			stale[pair] = true
		}
		if got := SortedStalePairs(stale); got == nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}
