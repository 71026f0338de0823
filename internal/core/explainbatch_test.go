package core

import (
	"fmt"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/stats"
)

// TestExplainBatchParity pins the batch/single Explain contract: Run with
// plans over a batch must return the same results and the same plans (estimates, chosen method,
// actual rows) as issuing each Explain individually — only Duration differs,
// because the batch execution is shared.  This is the regression test for the
// bug where only the single-query path populated plan actuals.
func TestExplainBatchParity(t *testing.T) {
	fx := makeStreamFixture(t, 20, 90, 0, 7)
	e, err := Build(fx.window, Config{Clusters: 4, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	specs := []plan.QuerySpec{
		plan.Interval(stats.Correlation, interval.GreaterThan(0.25)),
		plan.Interval(stats.Covariance, interval.Between(-0.5, 0.9)),
		plan.TopK(stats.Correlation, 4, true),
		plan.Interval(stats.Mean, interval.LessThan(0.1)),
		plan.TopK(stats.Cosine, 3, false),
		plan.Interval(stats.Jaccard, interval.Between(0.2, 0.8)),
	}
	for _, method := range []Method{MethodNaive, MethodAffine, MethodAuto} {
		results, plans, err := Run(e.View(), specs, method, true)
		if err != nil {
			t.Fatalf("%v: explained batch: %v", method, err)
		}
		if len(results) != len(specs) || len(plans) != len(specs) {
			t.Fatalf("%v: got %d results, %d plans for %d specs", method, len(results), len(plans), len(specs))
		}
		for i, spec := range specs {
			single, sp, err := e.Explain(spec, method)
			if err != nil {
				t.Fatalf("%v %v: Explain: %v", method, spec, err)
			}
			if got, want := fmt.Sprintf("%v", results[i]), fmt.Sprintf("%v", single); got != want {
				t.Fatalf("%v %v: batch result %s != single %s", method, spec, got, want)
			}
			bp := plans[i]
			if bp.ActualRows != results[i].Size() {
				t.Fatalf("%v %v: batch plan ActualRows %d, result size %d", method, spec, bp.ActualRows, results[i].Size())
			}
			if bp.Duration <= 0 {
				t.Fatalf("%v %v: batch plan Duration not populated", method, spec)
			}
			// Everything except the shared wall time — and which of the two
			// found the epoch's base column already filled — must match the
			// single Explain's plan.
			bp.Duration, sp.Duration = 0, 0
			bp.BaseValues, sp.BaseValues = "", ""
			if got, want := fmt.Sprintf("%+v", bp), fmt.Sprintf("%+v", sp); got != want {
				t.Fatalf("%v %v: batch plan %s != single plan %s", method, spec, got, want)
			}
		}
	}

	if _, _, err := Run(e.View(), specs, Method(99), true); err == nil {
		t.Fatal("explained batch accepted an invalid method")
	}
	bad := []plan.QuerySpec{plan.TopK(stats.Correlation, 0, true)}
	if _, _, err := Run(e.View(), bad, MethodAuto, true); err == nil {
		t.Fatal("explained batch accepted k=0")
	}
}
