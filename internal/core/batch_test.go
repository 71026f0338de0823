package core

import (
	"errors"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
)

// TestBatchValidation checks the batch entry points reject malformed queries
// the same way single queries do, explained or not, and that an explained
// batch reports its shared wall time on every plan.
func TestBatchValidation(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(measure.Correlation, interval.Between(1, -1))}, MethodAffine); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := runSpecs(e, []plan.QuerySpec{{Kind: plan.Kind(99), Measure: measure.Correlation}}, MethodAffine); err == nil {
		t.Fatal("a spec of no known kind was accepted")
	}
	if _, err := runSpecs(e, []plan.QuerySpec{ComputeSpec(measure.Correlation, nil)}, MethodIndex); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("MEC via index: err = %v, want ErrBadMethod", err)
	}
	empty, err := runSpecs(e, nil, MethodAffine)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
	specs := []plan.QuerySpec{plan.Interval(measure.Correlation, interval.GreaterThan(0.25)), plan.TopK(measure.Cosine, 3, false)}
	if _, _, err := Run(e.View(), specs, Method(99), true); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("explained batch with an invalid method: err = %v, want ErrBadMethod", err)
	}
	if _, _, err := Run(e.View(), append(specs, plan.TopK(measure.Correlation, 0, true)), MethodAuto, true); !errors.Is(err, ErrBadTopK) {
		t.Fatalf("explained batch with k = 0: err = %v, want ErrBadTopK", err)
	}
	if _, plans, err := Run(e.View(), specs, MethodAuto, true); err != nil || plans[0].Duration <= 0 || plans[1].Duration != plans[0].Duration {
		t.Fatalf("explained batch: plans %v, err %v; want one shared, positive Duration", plans, err)
	}
}

// TestBatchNoIndex checks that index-method batches against an index-less
// engine fail with ErrNoIndex like single queries.
func TestBatchNoIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, SkipIndex: true})
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(measure.Correlation, interval.GreaterThan(0.5))}, MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
	if _, err := runSpecs(e, []plan.QuerySpec{plan.Interval(measure.Correlation, interval.Between(0, 1))}, MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
}
