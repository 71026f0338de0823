package core

import (
	"errors"
	"fmt"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/stats"
)

// TestBatchMatchesSingleQueries pins the batched API's equivalence guarantee:
// a batch of MET specs and a batch of MER specs must return, for every
// measure and execution method, exactly what the corresponding sequence of single-query calls
// returns — same entries, same order.
func TestBatchMatchesSingleQueries(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, Parallelism: 4})

	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			var tqs []plan.QuerySpec
			var rqs []plan.QuerySpec
			for _, m := range stats.AllMeasures() {
				if method == MethodIndex && m == stats.Jaccard {
					continue // not indexable
				}
				tqs = append(tqs,
					plan.Interval(m, interval.GreaterThan(0.3)),
					plan.Interval(m, interval.LessThan(0.7)),
				)
				rqs = append(rqs, plan.Interval(m, interval.Between(-0.4, 0.8)))
			}

			batch, err := runSpecs(e, tqs, method)
			if err != nil {
				t.Fatalf("MET batch: %v", err)
			}
			if len(batch) != len(tqs) {
				t.Fatalf("MET batch returned %d results for %d queries", len(batch), len(tqs))
			}
			for i, q := range tqs {
				single, err := e.Interval(q.Measure, q.Interval, method)
				if err != nil {
					t.Fatalf("single threshold %v: %v", q, err)
				}
				if got, want := fmt.Sprintf("%v", batch[i]), fmt.Sprintf("%v", single); got != want {
					t.Errorf("%v: batch %.120s != single %.120s", q, got, want)
				}
			}

			rbatch, err := runSpecs(e, rqs, method)
			if err != nil {
				t.Fatalf("MER batch: %v", err)
			}
			for i, q := range rqs {
				single, err := e.Interval(q.Measure, q.Interval, method)
				if err != nil {
					t.Fatalf("single range %v: %v", q, err)
				}
				if got, want := fmt.Sprintf("%v", rbatch[i]), fmt.Sprintf("%v", single); got != want {
					t.Errorf("%v: batch %.120s != single %.120s", q, got, want)
				}
			}
		})
	}
}

// TestComputeBatchMatchesSingleQueries does the same for MEC queries.
func TestComputeBatchMatchesSingleQueries(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, Parallelism: 4})
	ids := e.Data().IDs()

	for _, method := range []Method{MethodNaive, MethodAffine} {
		var qs []ComputeQuery
		for _, m := range stats.AllMeasures() {
			if m.Class() == stats.LocationClass {
				qs = append(qs, ComputeQuery{Measure: m, IDs: ids})
			} else {
				qs = append(qs, ComputeQuery{Measure: m, IDs: ids[:8]})
			}
		}
		batch, err := e.ComputeBatch(qs, method)
		if err != nil {
			t.Fatalf("%v: ComputeBatch: %v", method, err)
		}
		for i, q := range qs {
			var want any
			var err error
			if q.Measure.Class() == stats.LocationClass {
				want, err = e.ComputeLocation(q.Measure, q.IDs, method)
			} else {
				want, err = e.ComputePairwise(q.Measure, q.IDs, method)
			}
			if err != nil {
				t.Fatalf("%v: single compute %v: %v", method, q.Measure, err)
			}
			var got any
			if q.Measure.Class() == stats.LocationClass {
				got = batch[i].Location
			} else {
				got = batch[i].Pairwise
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("%v compute %v: batch result differs from single call", method, q.Measure)
			}
		}
	}
}

// TestBatchMixedMeasuresSharesSweep checks a mixed batch (location + pairwise
// + duplicate measures with different predicates) round-trips correctly.
func TestBatchMixedMeasures(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, Parallelism: 2})
	qs := []plan.QuerySpec{
		plan.Interval(stats.Mean, interval.GreaterThan(0.0)),
		plan.Interval(stats.Correlation, interval.GreaterThan(0.9)),
		plan.Interval(stats.Correlation, interval.LessThan(0.1)),
		plan.Interval(stats.Covariance, interval.GreaterThan(0.0)),
		plan.Interval(stats.Mode, interval.LessThan(0.5)),
	}
	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		batch, err := runSpecs(e, qs, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for i, q := range qs {
			single, err := e.Interval(q.Measure, q.Interval, method)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%v", batch[i]) != fmt.Sprintf("%v", single) {
				t.Errorf("%v query %d (%v): mismatch", method, i, q.Measure)
			}
		}
	}
}

// TestBatchValidation checks the batch entry points reject malformed queries
// the same way single queries do.
func TestBatchValidation(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(stats.Correlation, interval.Between(1, -1))}, MethodAffine); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Compute(stats.Correlation, 2)}, MethodAffine); err == nil {
		t.Fatal("compute spec accepted by the row pipeline")
	}
	if _, err := e.ComputeBatch([]ComputeQuery{{Measure: stats.Correlation}}, MethodIndex); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("MEC via index: err = %v, want ErrBadMethod", err)
	}
	empty, err := runSpecs(e, nil, MethodAffine)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

// TestBatchNoIndex checks that index-method batches against an index-less
// engine fail with ErrNoIndex like single queries.
func TestBatchNoIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, SkipIndex: true})
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(stats.Correlation, interval.GreaterThan(0.5))}, MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(stats.Correlation, interval.Between(0, 1))}, MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
}
