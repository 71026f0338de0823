package core

import (
	"errors"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
)

// autoSpecs enumerates MET/MER specs across every measure and both
// directions, with thresholds spanning near-empty to near-full results.
func autoSpecs() []plan.QuerySpec {
	var specs []plan.QuerySpec
	for _, m := range measure.All() {
		specs = append(specs,
			plan.Interval(m, interval.GreaterThan(0.25)),
			plan.Interval(m, interval.GreaterThan(0.9)),
			plan.Interval(m, interval.LessThan(0.75)),
			plan.Interval(m, interval.Between(-0.5, 0.9)),
		)
	}
	return specs
}

// TestAutoWithoutIndex pins that auto degrades gracefully on an index-less
// engine: it plans among the sweep methods and never trips ErrNoIndex.
func TestAutoWithoutIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, SkipIndex: true})
	for _, spec := range autoSpecs() {
		res, p, err := e.Explain(spec, MethodAuto)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if p.Method == MethodIndex {
			t.Fatalf("%v: chose the index on a SkipIndex engine", spec)
		}
		if res.Size() == 0 && p.EstimatedRows > 0 && p.SelectivityExact {
			t.Fatalf("%v: exact selectivity claimed without an index", spec)
		}
	}
}

// TestAutoJaccardAvoidsIndex pins the un-indexable measure: auto answers
// Jaccard queries through a sweep method while MethodIndex keeps failing
// with ErrMeasureNotIndexed.
func TestAutoJaccardAvoidsIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	spec := plan.Interval(measure.Jaccard, interval.GreaterThan(0.5))
	_, p, err := e.Explain(spec, MethodAuto)
	if err != nil {
		t.Fatalf("auto jaccard: %v", err)
	}
	if p.Method == MethodIndex {
		t.Fatal("auto chose the index for jaccard")
	}
	if _, err := e.Interval(measure.Jaccard, interval.GreaterThan(0.5), MethodIndex); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("fixed index jaccard err = %v, want ErrMeasureNotIndexed", err)
	}
}

// TestExplainFixedMethod pins Explain with a concrete method: the plan
// reports that method with its own cost while still pricing alternatives.
func TestExplainFixedMethod(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	res, p, err := e.Explain(plan.Interval(measure.Correlation, interval.GreaterThan(0.8)), MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != MethodNaive || p.EstimatedCost != p.CostNaive {
		t.Fatalf("fixed-method plan %v", p)
	}
	if p.ActualRows != res.Size() || p.Duration <= 0 {
		t.Fatalf("actuals not filled: %v", p)
	}
	ids := e.Data().IDs()[:3]
	res, p, err = e.Explain(ComputeSpec(measure.Mean, ids), MethodAuto)
	if err != nil {
		t.Fatalf("Explain of a MEC spec: %v", err)
	}
	if !p.Method.Concrete() || p.Method == MethodIndex || p.ActualRows != len(ids) || len(res.Values) != len(ids) {
		t.Fatalf("MEC plan %v answered %v", p, res)
	}
	// An interval no value can satisfy is rejected, not planned.
	empty := interval.New(interval.Open(0.9), interval.Open(0.9))
	if _, _, err := e.Explain(plan.Interval(measure.Correlation, empty), MethodAuto); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("Explain with an empty interval err = %v, want ErrEmptyRange", err)
	}
}
