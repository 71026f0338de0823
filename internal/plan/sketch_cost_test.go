package plan

import (
	"math"
	"strings"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
)

// sketchTable is bigTable with the sketch tier enabled at the default width
// and a mildly ambiguous epoch.
func sketchTable() TableStats {
	st := bigTable()
	st.SketchCoefficients = 16
	st.SketchAmbiguity = 0.1
	return st
}

// TestSketchCostLowersNaiveRoute: on a sketch-enabled epoch the naive route
// executes through the prescreen, so its price must drop below the plain
// blocked sweep's (d + ambiguous·m per pair, not m per pair) and CostNaive
// must equal CostSketch — the planner prices the route that will actually
// run, which is how MethodAuto never picks a slower route than the best
// fixed method.
func TestSketchCostLowersNaiveRoute(t *testing.T) {
	cm := DefaultCostModel()
	for _, spec := range []QuerySpec{
		Interval(measure.Covariance, interval.Between(0.2, 0.9)),
		TopK(measure.Correlation, 10, true),
	} {
		plain := cm.Plan(spec, bigTable(), nil)
		sk := cm.Plan(spec, sketchTable(), nil)
		if !math.IsInf(plain.CostSketch, 1) {
			t.Fatalf("%v: sketch cost priced without sketches: %v", spec, plain.CostSketch)
		}
		if math.IsInf(sk.CostSketch, 1) {
			t.Fatalf("%v: sketch cost not priced on a sketch-enabled epoch", spec)
		}
		if sk.CostNaive != sk.CostSketch {
			t.Fatalf("%v: CostNaive %v != CostSketch %v — the naive route IS the prescreen",
				spec, sk.CostNaive, sk.CostSketch)
		}
		if sk.CostSketch >= plain.CostNaive {
			t.Fatalf("%v: prescreen at 10%% ambiguity priced %v, not below the plain sweep %v",
				spec, sk.CostSketch, plain.CostNaive)
		}
		if sk.EstimatedCost > sk.CostNaive || sk.EstimatedCost > sk.CostAffine ||
			sk.EstimatedCost > sk.CostIndex {
			t.Fatalf("%v: auto choice %v costlier than a fixed method: %v", spec, sk.EstimatedCost, sk)
		}
	}
}

// TestSketchCostHalfBoundedCheaper: a MET predicate has one endpoint for a
// bound to straddle, a MER predicate two, so at equal ambiguity the MET
// prescreen prices cheaper.
func TestSketchCostHalfBoundedCheaper(t *testing.T) {
	cm := DefaultCostModel()
	st := sketchTable()
	met := cm.Plan(Interval(measure.Covariance, interval.GreaterThan(0.9)), st, nil)
	mer := cm.Plan(Interval(measure.Covariance, interval.Between(0.2, 0.9)), st, nil)
	if !(met.CostSketch < mer.CostSketch) {
		t.Fatalf("MET sketch cost %v not below MER %v", met.CostSketch, mer.CostSketch)
	}
}

// TestSketchCostInapplicable: location measures have no pairwise sketch, and
// a fully ambiguous epoch never prices below the plain sweep.
func TestSketchCostInapplicable(t *testing.T) {
	cm := DefaultCostModel()
	if p := cm.Plan(Interval(measure.Mean, interval.GreaterThan(1)), sketchTable(), nil); !math.IsInf(p.CostSketch, 1) {
		t.Fatalf("location query priced a sketch prescreen: %v", p)
	}
	st := sketchTable()
	st.SketchAmbiguity = 1
	worst := cm.Plan(Interval(measure.Covariance, interval.Between(0.2, 0.9)), st, nil)
	plain := cm.Plan(Interval(measure.Covariance, interval.Between(0.2, 0.9)), bigTable(), nil)
	if worst.CostSketch < plain.CostNaive {
		t.Fatalf("fully ambiguous prescreen %v priced below the plain sweep %v",
			worst.CostSketch, plain.CostNaive)
	}
}

// TestPlanStringSketchActuals: Explain output renders the prescreen actuals.
func TestPlanStringSketchActuals(t *testing.T) {
	p := Plan{Spec: Interval(measure.Covariance, interval.Between(0, 1)), SketchedPairs: 820, SketchRefinedPairs: 37}
	if s := p.String(); !strings.Contains(s, "sketch 820 pairs, 37 refined") {
		t.Fatalf("Plan.String() = %q", s)
	}
	if s := (Plan{Spec: Interval(measure.Covariance, interval.Between(0, 1))}).String(); strings.Contains(s, "sketch") || strings.Contains(s, "base values") {
		t.Fatalf("sketch or base-column actuals rendered on a plan without them: %q", s)
	}
	if s := (Plan{Spec: Interval(measure.Covariance, interval.Between(0, 1)), BaseValues: "reused"}).String(); !strings.Contains(s, "[base values reused]") {
		t.Fatalf("Plan.String() = %q", s)
	}
}
