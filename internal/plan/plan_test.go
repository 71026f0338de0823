package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/scape"
)

// bigTable is a thousand-series epoch with an index over every indexable
// measure: the regime the paper's evaluation runs in.
func bigTable() TableStats {
	var indexed []measure.Measure
	for _, sp := range measure.Specs() {
		if sp.Indexable {
			indexed = append(indexed, sp.ID)
		}
	}
	return TableStats{
		NumSeries:  1000,
		NumSamples: 400,
		NumPairs:   1000 * 999 / 2,
		NumPivots:  1800,
		Indexed:    indexed,
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodNaive: "WN", MethodAffine: "WA", MethodIndex: "SCAPE", MethodAuto: "AUTO",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Method(9).String() != "method(9)" {
		t.Errorf("unknown method renders %q", Method(9).String())
	}
	if MethodAuto.Concrete() || !MethodIndex.Concrete() {
		t.Fatal("Concrete misclassifies")
	}
	for k, want := range map[Kind]string{KindInterval: "INTERVAL", KindCompute: "MEC", KindTopK: "MEK"} {
		if k.String() != want {
			t.Errorf("kind %d renders %q, want %q", int(k), k.String(), want)
		}
	}
	// Out-of-range kinds render a stable unknown(N) form in both directions.
	for _, k := range []Kind{Kind(9), Kind(-3)} {
		want := fmt.Sprintf("unknown(%d)", int(k))
		if k.String() != want {
			t.Errorf("kind %d renders %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestSpecConstructors(t *testing.T) {
	s := Interval(measure.Correlation, interval.GreaterThan(0.9))
	if s.Kind != KindInterval || s.Measure != measure.Correlation {
		t.Fatalf("threshold spec %+v", s)
	}
	if !s.Interval.Contains(0.95) || s.Interval.Contains(0.9) || s.Interval.Contains(0.5) {
		t.Fatalf("threshold interval %v is not (0.9, +inf)", s.Interval)
	}
	if pq := s.PairQuery(); pq.Interval != s.Interval || pq.Measure != measure.Correlation {
		t.Fatalf("pair query %+v", pq)
	}
	if !strings.Contains(s.String(), "MET correlation > 0.9") {
		t.Fatalf("threshold spec renders %q", s.String())
	}
	r := Interval(measure.Covariance, interval.Between(-1, 2))
	if r.Kind != KindInterval || !r.Interval.Bounded() {
		t.Fatalf("range spec %+v", r)
	}
	if !r.Interval.Contains(-1) || !r.Interval.Contains(2) || r.Interval.Contains(2.1) {
		t.Fatalf("range interval %v is not [-1, 2]", r.Interval)
	}
	if !strings.Contains(r.String(), "MER covariance in [-1, 2]") {
		t.Fatalf("range spec renders %q", r.String())
	}
	iv := Interval(measure.Cosine, interval.AtLeast(0.5))
	if iv.Kind != KindInterval || !iv.Interval.Contains(0.5) {
		t.Fatalf("interval spec %+v", iv)
	}
	k := TopK(measure.Correlation, 10, true)
	if k.Kind != KindTopK || k.K != 10 || !k.Largest {
		t.Fatalf("topk spec %+v", k)
	}
	if !strings.Contains(k.String(), "MEK correlation top-10 largest") {
		t.Fatalf("topk spec renders %q", k.String())
	}
	if !strings.Contains(TopK(measure.EuclideanDistance, 3, false).String(), "top-3 smallest") {
		t.Fatalf("smallest topk renders %q", TopK(measure.EuclideanDistance, 3, false).String())
	}
	cq := Compute(measure.Mean, 17)
	if cq.Kind != KindCompute || cq.NumTargets != 17 {
		t.Fatalf("compute spec %+v", cq)
	}
	for _, spec := range []QuerySpec{s, r, iv, k, cq} {
		if spec.String() == "" {
			t.Fatal("spec renders empty")
		}
	}
}

// TestTopKCosts pins the top-k pricing shape: with an index present and an
// indexable measure, a small-k query routes to the best-first traversal; a
// non-indexable measure never prices the index.
func TestTopKCosts(t *testing.T) {
	cm := DefaultCostModel()
	p := cm.Plan(TopK(measure.Correlation, 10, true), bigTable(), nil)
	if p.Method != MethodIndex {
		t.Fatalf("top-10 chose %v, want SCAPE: %v", p.Method, p)
	}
	if p.EstimatedRows != 10 {
		t.Fatalf("top-10 estimated rows = %d", p.EstimatedRows)
	}
	if pj := cm.Plan(TopK(measure.Jaccard, 10, true), bigTable(), nil); !math.IsInf(pj.CostIndex, 1) {
		t.Fatalf("jaccard top-k priced the index: %v", pj)
	}
	st := bigTable()
	st.Indexed = nil
	if pn := cm.Plan(TopK(measure.Correlation, 10, true), st, nil); pn.Method == MethodIndex {
		t.Fatalf("no-index top-k chose the index: %v", pn)
	}
	if pl := cm.Plan(TopK(measure.Mean, 5, false), bigTable(), nil); pl.Method == MethodNaive {
		t.Fatalf("location top-k should avoid the full naive recomputation: %v", pl)
	}
}

// TestChoosesIndexForSelectiveQuery pins the headline decision: a selective
// MET query on an indexed measure goes to SCAPE.
func TestChoosesIndexForSelectiveQuery(t *testing.T) {
	sel := &scape.Selectivity{Rows: 120}
	p := DefaultCostModel().Plan(Interval(measure.Covariance, interval.GreaterThan(0.9)), bigTable(), sel)
	if p.Method != MethodIndex {
		t.Fatalf("chose %v, want SCAPE: %v", p.Method, p)
	}
	if p.EstimatedRows != 120 || !p.SelectivityExact {
		t.Fatalf("selectivity not threaded: %+v", p)
	}
	if p.CostIndex >= p.CostAffine || p.CostAffine >= p.CostNaive {
		t.Fatalf("cost ordering unexpected: %v", p)
	}
	if p.EstimatedCost != p.CostIndex {
		t.Fatalf("EstimatedCost %v != chosen cost %v", p.EstimatedCost, p.CostIndex)
	}
}

// TestChoosesAffineWithoutIndex pins that un-indexable queries (Jaccard, or
// an engine built with SkipIndex) fall to the affine sweep.
func TestChoosesAffineWithoutIndex(t *testing.T) {
	st := bigTable()
	st.Indexed = nil
	p := DefaultCostModel().Plan(Interval(measure.Jaccard, interval.GreaterThan(0.5)), st, nil)
	if p.Method != MethodAffine {
		t.Fatalf("chose %v, want WA: %v", p.Method, p)
	}
	if !math.IsInf(p.CostIndex, 1) {
		t.Fatalf("index cost should be +Inf without an index: %v", p)
	}
	if p.SelectivityExact || p.EstimatedRows == 0 {
		t.Fatalf("heuristic rows expected: %+v", p)
	}
}

// TestChoosesNaiveWhenFullyPruned pins the fallback crossover: when every
// relationship was pruned, the affine method is naive-plus-lookup-overhead
// per pair and the planner picks the plain naive sweep.  (The break-even sits
// very close to 100%: each surviving relationship saves an O(m) scan while a
// pruned one only adds a failed map lookup.)
func TestChoosesNaiveWhenFullyPruned(t *testing.T) {
	st := bigTable()
	st.Indexed = nil
	st.FallbackPairs = st.NumPairs
	p := DefaultCostModel().Plan(Interval(measure.Correlation, interval.GreaterThan(0.5)), st, nil)
	if p.Method != MethodNaive {
		t.Fatalf("chose %v, want WN: %v", p.Method, p)
	}
}

// TestComputeQueriesNeverChooseIndex pins that MEC queries only weigh the
// naive and affine methods.
func TestComputeQueriesNeverChooseIndex(t *testing.T) {
	cm := DefaultCostModel()
	for _, spec := range []QuerySpec{Compute(measure.Mean, 50), Compute(measure.Correlation, 50)} {
		p := cm.Plan(spec, bigTable(), nil)
		if !math.IsInf(p.CostIndex, 1) {
			t.Fatalf("%v: index cost should be +Inf: %v", spec, p)
		}
		if p.Method != MethodAffine {
			t.Fatalf("%v: chose %v, want WA (O(1) per target vs O(m))", spec, p.Method)
		}
	}
	// A fully pruned epoch flips pairwise MEC back to naive.
	st := bigTable()
	st.FallbackPairs = st.NumPairs
	if p := cm.Plan(Compute(measure.Covariance, 50), st, nil); p.Method != MethodNaive {
		t.Fatalf("fully pruned MEC chose %v, want WN: %v", p.Method, p)
	}
}

// TestDerivedIntervalPricedLikeTMeasure pins the D-measure price: an index
// scan reads the epoch's value column and evaluates nothing, so a D-measure
// interval costs what its base T-measure's does — node steps plus emit, no
// candidate term — and stays on the index even where shallow trees made the
// old per-candidate price lose to the affine sweep.  The row count fills
// EstimatedRows and moves every cost column by the same emit term, so no
// count changes the choice; an index without the measure prices nothing.
func TestDerivedIntervalPricedLikeTMeasure(t *testing.T) {
	cm := DefaultCostModel()
	st := bigTable()
	st.NumPivots = st.NumPairs / 4 // shallow trees: high per-pivot overhead
	for _, rows := range []int{0, 17, st.NumPairs / 2, st.NumPairs} {
		sel := &scape.Selectivity{Rows: rows}
		for _, iv := range []interval.Interval{interval.GreaterThan(0), interval.Between(-0.3, 0.7), interval.All()} {
			d := cm.Plan(Interval(measure.Correlation, iv), st, sel)
			base := cm.Plan(Interval(measure.Covariance, iv), st, sel)
			if d.CostIndex != base.CostIndex || d.Candidates != 0 {
				t.Fatalf("rows %d %v: correlation index cost %v (%d candidates), covariance %v",
					rows, iv, d.CostIndex, d.Candidates, base.CostIndex)
			}
			if d.Method != MethodIndex || d.EstimatedRows != rows || !d.SelectivityExact {
				t.Fatalf("rows %d %v: %v", rows, iv, d)
			}
			if blind := cm.Plan(Interval(measure.Correlation, iv), st, nil); blind.Method != d.Method {
				t.Fatalf("rows %d %v: the count moved the choice from %v to %v", rows, iv, blind.Method, d.Method)
			}
		}
	}
	st.Indexed = []measure.Measure{measure.Covariance, measure.DotProduct}
	if p := cm.Plan(Interval(measure.Correlation, interval.GreaterThan(0)), st, nil); !math.IsInf(p.CostIndex, 1) {
		t.Fatalf("an index without correlation priced it: %v", p)
	}
}

// TestZeroModelUsesDefaults pins that a zero CostModel behaves like the
// calibrated default, so an unset Config never panics or picks degenerately.
func TestZeroModelUsesDefaults(t *testing.T) {
	sel := &scape.Selectivity{Rows: 10}
	var zero CostModel
	a := zero.Plan(Interval(measure.Covariance, interval.GreaterThan(0.9)), bigTable(), sel)
	b := DefaultCostModel().Plan(Interval(measure.Covariance, interval.GreaterThan(0.9)), bigTable(), sel)
	if a.Method != b.Method || a.EstimatedCost != b.EstimatedCost {
		t.Fatalf("zero model diverges from default: %v vs %v", a, b)
	}
}

// TestLocationThresholdCosts pins the L-measure ordering: index <= affine
// lookup scan <= naive recomputation.
func TestLocationThresholdCosts(t *testing.T) {
	sel := &scape.Selectivity{Rows: 30}
	p := DefaultCostModel().Plan(Interval(measure.Mean, interval.Between(0, 1)), bigTable(), sel)
	if p.Method != MethodIndex {
		t.Fatalf("chose %v, want SCAPE: %v", p.Method, p)
	}
	if !(p.CostIndex < p.CostAffine && p.CostAffine < p.CostNaive) {
		t.Fatalf("cost ordering unexpected: %v", p)
	}
}

// TestPlanString smoke-tests the EXPLAIN rendering.
func TestPlanString(t *testing.T) {
	p := DefaultCostModel().Plan(Interval(measure.Correlation, interval.GreaterThan(0.9)),
		bigTable(), &scape.Selectivity{Rows: 5})
	s := p.String()
	for _, frag := range []string{"MET correlation", "SCAPE", "est 5 rows"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan rendering %q misses %q", s, frag)
		}
	}
}
