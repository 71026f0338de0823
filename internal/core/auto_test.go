package core

import (
	"errors"
	"fmt"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// autoSpecs enumerates MET/MER specs across every measure and both
// directions, with thresholds spanning near-empty to near-full results.
func autoSpecs() []plan.QuerySpec {
	var specs []plan.QuerySpec
	for _, m := range stats.AllMeasures() {
		specs = append(specs,
			plan.Interval(m, interval.GreaterThan(0.25)),
			plan.Interval(m, interval.GreaterThan(0.9)),
			plan.Interval(m, interval.LessThan(0.75)),
			plan.Interval(m, interval.Between(-0.5, 0.9)),
		)
	}
	return specs
}

// TestAutoMatchesChosenMethod pins MethodAuto's result-set identity: for
// every spec, the auto result must equal — entries and order — the result of
// running the planner's chosen method as a fixed method.
func TestAutoMatchesChosenMethod(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, Parallelism: 2})
	for _, spec := range autoSpecs() {
		autoRes, p, err := e.Explain(spec, MethodAuto)
		if err != nil {
			t.Fatalf("%v auto: %v", spec, err)
		}
		if !p.Method.Concrete() {
			t.Fatalf("%v: planner chose non-concrete method %v", spec, p.Method)
		}
		fixed, err := e.Interval(spec.Measure, spec.Interval, p.Method)
		if err != nil {
			t.Fatalf("%v fixed %v: %v", spec, p.Method, err)
		}
		if got, want := fmt.Sprintf("%v", autoRes), fmt.Sprintf("%v", fixed); got != want {
			t.Errorf("%v: auto (via %v) %.120s != fixed %.120s", spec, p.Method, got, want)
		}
		if p.ActualRows != autoRes.Size() {
			t.Errorf("%v: plan actual rows %d != result size %d", spec, p.ActualRows, autoRes.Size())
		}
	}
}

// forcingModel returns a cost model whose coefficients make the given
// method the cheapest for every query, so MethodAuto provably selects it.
func forcingModel(method Method) plan.CostModel {
	cm := plan.DefaultCostModel()
	switch method {
	case MethodNaive:
		cm.SampleCost = 1e-9
	case MethodAffine:
		cm.AffinePairCost = 1e-9
		cm.LookupCost = 1e-9
	case MethodIndex:
		cm.TreeStepCost = 1e-9
		cm.CandidateCost = 1e-9
	}
	return cm
}

// TestAutoMatchesEveryForcedMethod pins result-set identity against each
// fixed method: for every concrete method a cost model is installed that
// forces the planner to choose it, and the auto result must then equal that
// fixed method's result for every measure and query form.
func TestAutoMatchesEveryForcedMethod(t *testing.T) {
	for _, forced := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		forced := forced
		t.Run(forced.String(), func(t *testing.T) {
			e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, CostModel: forcingModel(forced)})
			for _, spec := range autoSpecs() {
				autoRes, p, err := e.Explain(spec, MethodAuto)
				if err != nil {
					t.Fatalf("%v: %v", spec, err)
				}
				want := forced
				if forced == MethodIndex && spec.Measure == stats.Jaccard {
					want = MethodAffine // not indexable; next-cheapest wins
				}
				if p.Method != want {
					t.Fatalf("%v: planner chose %v, want %v (plan %v)", spec, p.Method, want, p)
				}
				fixed, err := e.Interval(spec.Measure, spec.Interval, p.Method)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%v", autoRes) != fmt.Sprintf("%v", fixed) {
					t.Errorf("%v: auto differs from fixed %v", spec, p.Method)
				}
			}
		})
	}
}

// TestAutoBatchMatchesSingleAuto pins that batched auto queries resolve and
// answer identically to the corresponding single auto calls.
func TestAutoBatchMatchesSingleAuto(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, Parallelism: 4})
	var tqs []plan.QuerySpec
	for _, m := range stats.AllMeasures() {
		tqs = append(tqs,
			plan.Interval(m, interval.GreaterThan(0.3)),
			plan.Interval(m, interval.LessThan(0.7)),
		)
	}
	batch, err := runSpecs(e, tqs, MethodAuto)
	if err != nil {
		t.Fatalf("MET batch auto: %v", err)
	}
	for i, q := range tqs {
		single, err := e.Interval(q.Measure, q.Interval, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", batch[i]) != fmt.Sprintf("%v", single) {
			t.Errorf("query %d (%v): batch auto != single auto", i, q.Measure)
		}
	}
}

// TestAutoComputeMatchesResolvedMethod pins MEC auto equivalence: the result
// equals the same call with the planner's choice, and the index is never
// chosen for MEC.
func TestAutoComputeMatchesResolvedMethod(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	ids := e.Data().IDs()
	st := e.escapedState()
	for _, m := range stats.AllMeasures() {
		var k int
		if m.Class() == stats.LocationClass {
			k = len(ids)
		} else {
			k = 8
		}
		p, err := st.Plan(plan.Compute(m, k))
		if err != nil {
			t.Fatal(err)
		}
		if p.Method == MethodIndex {
			t.Fatalf("%v: planner chose the index for MEC", m)
		}
		if m.Class() == stats.LocationClass {
			auto, err := e.ComputeLocation(m, ids, MethodAuto)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := e.ComputeLocation(m, ids, p.Method)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%v", auto) != fmt.Sprintf("%v", fixed) {
				t.Errorf("%v: auto MEC differs from %v", m, p.Method)
			}
			continue
		}
		auto, err := e.ComputePairwise(m, ids[:8], MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := e.ComputePairwise(m, ids[:8], p.Method)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", auto) != fmt.Sprintf("%v", fixed) {
			t.Errorf("%v: auto MEC differs from %v", m, p.Method)
		}
	}
	pair, err := timeseries.NewPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PairValue(stats.Correlation, pair, MethodAuto); err != nil {
		t.Fatalf("auto PairValue: %v", err)
	}
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
	spec := plan.Interval(stats.Jaccard, interval.GreaterThan(0.5))
	_, p, err := e.Explain(spec, MethodAuto)
	if err != nil {
		t.Fatalf("auto jaccard: %v", err)
	}
	if p.Method == MethodIndex {
		t.Fatal("auto chose the index for jaccard")
	}
	if _, err := e.Interval(stats.Jaccard, interval.GreaterThan(0.5), MethodIndex); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("fixed index jaccard err = %v, want ErrMeasureNotIndexed", err)
	}
}

// TestExplainFixedMethod pins Explain with a concrete method: the plan
// reports that method with its own cost while still pricing alternatives.
func TestExplainFixedMethod(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	res, p, err := e.Explain(plan.Interval(stats.Correlation, interval.GreaterThan(0.8)), MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != MethodNaive || p.EstimatedCost != p.CostNaive {
		t.Fatalf("fixed-method plan %v", p)
	}
	if p.ActualRows != res.Size() || p.Duration <= 0 {
		t.Fatalf("actuals not filled: %v", p)
	}
	if _, _, err := e.Explain(plan.Compute(stats.Mean, 3), MethodAuto); err == nil {
		t.Fatal("Explain accepted a MEC spec")
	}
	// An interval no value can satisfy is rejected, not planned.
	empty := interval.New(interval.Open(0.9), interval.Open(0.9))
	if _, _, err := e.Explain(plan.Interval(stats.Correlation, empty), MethodAuto); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("Explain with an empty interval err = %v, want ErrEmptyRange", err)
	}
}
