package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// sketchQuantiles extracts interval endpoints from a sweep's value
// distribution so the parity queries hit mid-range selectivities that
// exercise all three prescreen classes (definite-in, definite-out,
// ambiguous) rather than degenerate all-in or all-out predicates.
func sketchQuantiles(values []float64) (finite []float64) {
	for _, v := range values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	sort.Float64s(finite)
	return finite
}

func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// mustEqualResults compares two query results bit for bit: identical pair
// sequences, identical Values presence, and Float64bits-identical values.
func mustEqualResults(t *testing.T, label string, got, want QueryResult) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair[%d] = %v, want %v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
	if (got.Values == nil) != (want.Values == nil) {
		t.Fatalf("%s: Values presence %v vs %v", label, got.Values != nil, want.Values != nil)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("%s: value[%d] (pair %v) = %x (%v), want %x (%v)", label, i, want.Pairs[i],
				math.Float64bits(got.Values[i]), got.Values[i],
				math.Float64bits(want.Values[i]), want.Values[i])
		}
	}
}

// checkSketchParity runs the full parity battery between a sketch-enabled and
// a plain engine over identical epochs: bounded and half-bounded interval
// queries at several selectivities plus top-k in both directions, for every
// registered pairwise measure, all through the naive route the prescreen
// intercepts.
func checkSketchParity(t *testing.T, label string, plain, sketched *Engine) {
	t.Helper()
	for _, m := range pairwiseMeasures() {
		exact, err := plain.PairwiseSweepNaive(m)
		if err != nil {
			t.Fatalf("%s %v: exact sweep: %v", label, m, err)
		}
		ivs := []interval.Interval{interval.All()}
		if finite := sketchQuantiles(exact.Values); len(finite) > 2 {
			ivs = append(ivs,
				interval.Between(quantile(finite, 0.3), quantile(finite, 0.7)),
				interval.GreaterThan(quantile(finite, 0.8)),
				interval.AtMost(quantile(finite, 0.2)),
				interval.Between(quantile(finite, 0.45), quantile(finite, 0.55)),
			)
		}
		for _, iv := range ivs {
			want, err := plain.Interval(m, iv, MethodNaive)
			if err != nil {
				t.Fatalf("%s %v %v: plain: %v", label, m, iv, err)
			}
			got, err := sketched.Interval(m, iv, MethodNaive)
			if err != nil {
				t.Fatalf("%s %v %v: sketched: %v", label, m, iv, err)
			}
			mustEqualResults(t, label+" "+m.String()+" "+iv.String(), got, want)
		}
		for _, largest := range []bool{true, false} {
			for _, k := range []int{3, 20} {
				want, err := plain.TopK(m, k, largest, MethodNaive)
				if err != nil {
					t.Fatalf("%s %v top-%d: plain: %v", label, m, k, err)
				}
				got, err := sketched.TopK(m, k, largest, MethodNaive)
				if err != nil {
					t.Fatalf("%s %v top-%d: sketched: %v", label, m, k, err)
				}
				mustEqualResults(t, label+" "+m.String()+" topk", got, want)
			}
		}
	}
}

// TestSketchSweepParity is the tentpole acceptance test: sketch-prescreened
// sweeps must be byte-identical to the exact kernel path for every registered
// pairwise measure, at parallelism P ∈ {1, 2, 8}, across a cold build and
// three Advances with slides S ∈ {1, 2, 4} — covering both the refit-all
// (rebuild) and DriftBound (stale-set repair) streaming regimes, and both the
// radix-2 and Bluestein FFT window lengths.
func TestSketchSweepParity(t *testing.T) {
	cases := []struct {
		p      int
		window int
		drift  float64
	}{
		{1, 64, 0},   // serial, power-of-two window, refit-all
		{2, 90, 0.5}, // Bluestein window, stale-set repair regime
		{8, 96, 0},   // wide parallelism, refit-all
	}
	slides := []int{1, 2, 4}
	for _, tc := range cases {
		fx := makeStreamFixture(t, 18, tc.window, 1+2+4, 41)
		cfg := Config{
			Clusters: 4, Seed: 7, Parallelism: tc.p,
			Stream: StreamConfig{DriftBound: tc.drift},
		}
		plain, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sketch = sketch.Options{Enabled: true, Coefficients: 16}
		sketched, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSketchParity(t, "cold", plain, sketched)
		off := 0
		for round, s := range slides {
			ticks := fx.ticks[off : off+s]
			off += s
			appendTicks(t, plain, ticks)
			if _, err := plain.Advance(); err != nil {
				t.Fatalf("P=%d round %d plain Advance: %v", tc.p, round, err)
			}
			appendTicks(t, sketched, ticks)
			if _, err := sketched.Advance(); err != nil {
				t.Fatalf("P=%d round %d sketched Advance: %v", tc.p, round, err)
			}
			checkSketchParity(t, "epoch", plain, sketched)
		}
		ss := sketched.StreamStats()
		if ss.SketchSweeps == 0 {
			t.Fatalf("P=%d: prescreen never ran — the parity test is vacuous", tc.p)
		}
		if ss.SketchDefiniteIn+ss.SketchDefiniteOut == 0 {
			t.Fatalf("P=%d: prescreen classified nothing definitively: %+v", tc.p, ss)
		}
		// A series' DFT does not depend on any transform: sketches slide in the
		// refit-all regime as much as in the stale-set one.
		if ss.SketchSlid == 0 {
			t.Fatalf("P=%d drift=%v: no sketch was ever slid: %+v", tc.p, tc.drift, ss)
		}
	}
}

// TestSketchSlidesUnderFullRefit: with DriftBound 0 every relationship is
// refit every epoch, and every sketch still slides its kept coefficients — a
// full FFT per series runs only at the build and on the statistics-refresh
// epochs.  The prescreen stays byte-identical across StatsRefreshEvery + 2
// epochs, the refresh included.
func TestSketchSlidesUnderFullRefit(t *testing.T) {
	const n, refreshEvery = 18, 4
	fx := makeStreamFixture(t, n, 64, refreshEvery+2, 41)
	cfg := Config{Clusters: 4, Seed: 7, Stream: StreamConfig{DriftBound: 0, StatsRefreshEvery: refreshEvery}}
	plain, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch = sketch.Options{Enabled: true, Coefficients: 16}
	sketched, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for epoch, tick := range fx.ticks {
		advanceBoth(t, [][]float64{tick}, plain, sketched)
		checkSketchParity(t, fmt.Sprintf("epoch %d", epoch+1), plain, sketched)
	}
	ss := sketched.StreamStats()
	if ss.IndexRebuilds != refreshEvery+2 {
		t.Fatalf("%d of %d epochs refit everything: the regime is not DriftBound 0's", ss.IndexRebuilds, refreshEvery+2)
	}
	if ss.SketchRebuilt != 2*n || ss.SketchSlid != (refreshEvery+1)*n {
		t.Fatalf("%d sketches rebuilt and %d slid over %d epochs, want %d (build + one refresh) and %d",
			ss.SketchRebuilt, ss.SketchSlid, refreshEvery+2, 2*n, (refreshEvery+1)*n)
	}
}

// TestSketchLowCoefficientParity stresses the bound-quality extremes: with
// d=1 almost everything is ambiguous (the refine path dominates), with d
// clamped at m−1 the residual is ~0 and nearly everything classifies
// definitively.  Results must stay byte-identical in both regimes.
func TestSketchLowCoefficientParity(t *testing.T) {
	for _, d := range []int{1, 1 << 20} { // 1<<20 clamps to m-1
		fx := makeStreamFixture(t, 12, 60, 2, 43)
		cfg := Config{Clusters: 3, Seed: 5}
		plain, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sketch = sketch.Options{Enabled: true, Coefficients: d}
		sketched, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSketchParity(t, "cold", plain, sketched)
		appendTicks(t, plain, fx.ticks)
		appendTicks(t, sketched, fx.ticks)
		if _, err := plain.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, err := sketched.Advance(); err != nil {
			t.Fatal(err)
		}
		checkSketchParity(t, "epoch", plain, sketched)
	}
}

// TestSketchExplainActuals pins the observability contract: Explain through
// the sketch tier stamps the prescreened and refined pair counts on the plan,
// and refined never exceeds sketched.  The query is on cosine, a dot-product
// base measure with correlation's [−1, 1] range: at the build epoch, a full
// fit, a correlation query reads the naive covariance column instead.
func TestSketchExplainActuals(t *testing.T) {
	fx := makeStreamFixture(t, 12, 60, 0, 47)
	e, err := Build(fx.window, Config{
		Clusters: 3, Seed: 5,
		Sketch: sketch.Options{Enabled: true, Coefficients: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := e.Explain(plan.Interval(measure.Cosine, interval.Between(0.5, 0.9)), MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	numPairs := 12 * 11 / 2
	if p.SketchedPairs != numPairs {
		t.Fatalf("SketchedPairs = %d, want %d", p.SketchedPairs, numPairs)
	}
	if p.SketchRefinedPairs < 0 || p.SketchRefinedPairs > p.SketchedPairs {
		t.Fatalf("SketchRefinedPairs = %d out of range [0, %d]", p.SketchRefinedPairs, p.SketchedPairs)
	}
}

// stageSpecs is the query battery of one measure for the stage parity test,
// with endpoints taken from the measure's own values so that every predicate
// has pairs sitting exactly on an endpoint — the ones no bound can decide:
// the whole universe, closed, open and half-open bands, both half-bounded
// directions, an empty result, and top-k in both directions at a k inside a
// run of tied values, a larger k and one past the universe.
func stageSpecs(m measure.Measure, values []float64) []plan.QuerySpec {
	specs := []plan.QuerySpec{plan.Interval(m, interval.All())}
	if finite := sketchQuantiles(values); len(finite) > 2 {
		q := func(p float64) float64 { return quantile(finite, p) }
		specs = append(specs,
			plan.Interval(m, interval.Between(q(0.3), q(0.7))),
			plan.Interval(m, interval.New(interval.Open(q(0.3)), interval.Open(q(0.7)))),
			plan.Interval(m, interval.New(interval.Closed(q(0.45)), interval.Open(q(0.55)))),
			plan.Interval(m, interval.GreaterThan(q(0.9))),
			plan.Interval(m, interval.AtLeast(q(0.9))),
			plan.Interval(m, interval.AtMost(q(0.1))),
			plan.Interval(m, interval.LessThan(q(0.1))),
			plan.Interval(m, interval.GreaterThan(q(1))),
		)
		// Tied quantiles can leave a half-open band empty; the pipeline
		// rejects those before anything runs.
		specs = slices.DeleteFunc(specs, func(spec plan.QuerySpec) bool { return spec.Interval.Empty() })
	}
	for _, largest := range []bool{true, false} {
		for _, k := range []int{2, 25, len(values) + 3} {
			specs = append(specs, plan.TopK(m, k, largest))
		}
	}
	return specs
}

// TestSweepStageParity holds the one filter-and-refine stage to answers
// derived from the scalar oracle — every registered pairwise measure × the
// stageSpecs battery × single and batched × cache on/off × sketch on/off ×
// P ∈ {1, 2, 8} × the full and an AssignedPairsOnly universe, Float64bits
// equal — on the cold epoch (which materialises the pair-moment column), over
// Advances that carry it, and across a statistics-refresh epoch that drops it.
// Series 1 duplicates series 0, so every measure has tied values for top-k to
// break by pair identity.  Both universes sit on a partial layout.  On the
// same engines and epochs the affine half of the stage — the base columns,
// propagated where a pair has a relationship and naive where it has none — is
// held to the single-pair evaluator (requireColumnsOfPairEvaluator).
func TestSweepStageParity(t *testing.T) {
	const n, window, slide, rounds, refreshEvery = 26, 48, 2, 5, 4
	fixture := func() *streamFixture {
		fx := makeStreamFixture(t, n, window, slide*rounds, 67)
		rows := make([][]float64, n)
		for v := range rows {
			s, err := fx.window.Series(timeseries.SeriesID(v))
			if err != nil {
				t.Fatal(err)
			}
			rows[v] = append([]float64(nil), s...)
		}
		rows[1] = append([]float64(nil), rows[0]...)
		d, err := timeseries.NewDataMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		fx.window = d
		for _, tick := range fx.ticks {
			tick[1] = tick[0]
		}
		return fx
	}
	type variant struct {
		name string
		e    *Engine
	}
	var engines []variant
	for _, p := range determinismLevels {
		for _, cached := range []bool{false, true} {
			for _, sketched := range []bool{false, true} {
				for _, restricted := range []bool{false, true} {
					cfg := Config{
						Clusters: 4, Seed: 11, Parallelism: p,
						Stream: StreamConfig{DriftBound: 0.5, StatsRefreshEvery: refreshEvery},
						Cache:  qcache.Options{Enabled: cached},
						Sketch: sketch.Options{Enabled: sketched, Coefficients: 8},
					}
					limit := 250
					if restricted {
						cfg.AssignedPairsOnly, limit = true, 200
					}
					e := buildLimited(t, fixture().window, cfg, limit)
					if restricted && e.escapedState().numUniversePairs() != 200 {
						t.Fatalf("restricted universe has %d pairs", e.escapedState().numUniversePairs())
					}
					if st := e.escapedState(); !restricted && st.table.FallbackPairs == 0 {
						t.Fatal("every pair has a relationship: the column's naive fallback is not exercised beside its propagation")
					}
					engines = append(engines, variant{fmt.Sprintf("P=%d cache=%v sketch=%v restricted=%v", p, cached, sketched, restricted), e})
				}
			}
		}
	}
	fx := fixture()
	ref, err := Build(fx.window, Config{Clusters: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= rounds; round++ {
		if round > 0 {
			ticks := fx.ticks[(round-1)*slide : round*slide]
			advanceBoth(t, ticks, ref)
			for _, v := range engines {
				advanceBoth(t, ticks, v.e)
			}
		}
		oracle := newScalarOracle(t, ref)
		var specs []plan.QuerySpec
		for _, m := range pairwiseMeasures() {
			specs = append(specs, stageSpecs(m, oracle.values[m])...)
		}
		for _, v := range engines {
			requireColumnsOfPairEvaluator(t, fmt.Sprintf("epoch %d %s", round, v.name), v.e)
			var universe map[timeseries.Pair]bool
			if pairs := v.e.escapedState().pairs; pairs != nil {
				universe = make(map[timeseries.Pair]bool, len(pairs))
				for _, pair := range pairs {
					universe[pair] = true
				}
			}
			// Alternate which of the two goes first, so that on a cache-enabled
			// engine each gets to sweep (the other is then served by the cache).
			for pass := 0; pass < 2; pass++ {
				if batched := (pass+round)%2 == 0; batched {
					got, err := runSpecs(v.e, specs, MethodNaive)
					if err != nil {
						t.Fatalf("epoch %d %s batch: %v", round, v.name, err)
					}
					for i, spec := range specs {
						mustEqualResults(t, fmt.Sprintf("epoch %d %s batch %v", round, v.name, spec), got[i], oracle.answer(spec, universe))
					}
					continue
				}
				for _, spec := range specs {
					got, err := runSpecs(v.e, []plan.QuerySpec{spec}, MethodNaive)
					if err != nil {
						t.Fatalf("epoch %d %s %v: %v", round, v.name, spec, err)
					}
					mustEqualResults(t, fmt.Sprintf("epoch %d %s %v", round, v.name, spec), got[0], oracle.answer(spec, universe))
				}
			}
		}
	}
	// The pair-moment column was materialised cold and once more after the
	// refresh epoch, every other Advance carried it; each affine base column was
	// filled once per epoch.
	for _, v := range engines {
		s := v.e.StreamStats()
		if s.SweepBaseFills != 2*(rounds+1) || s.SweepBaseReuses == 0 {
			t.Fatalf("%s: %d base fills, %d reuses over %d epochs, want two fills an epoch", v.name, s.SweepBaseFills, s.SweepBaseReuses, rounds+1)
		}
		if want := int64(1 + rounds/refreshEvery); s.MomentFills != want || s.MomentSweeps == 0 {
			t.Fatalf("%s: %d moment fills, %d sweeps, want %d fills", v.name, s.MomentFills, s.MomentSweeps, want)
		}
		if pairs := int64(v.e.escapedState().numUniversePairs()); s.MomentRefinedPairs == 0 || s.MomentRefinedPairs >= s.MomentSweeps*pairs/2 {
			t.Fatalf("%s: %d sweeps over %d pairs refined %d: the filter decided nothing", v.name, s.MomentSweeps, pairs, s.MomentRefinedPairs)
		}
	}
}

// TestNoNaiveSweepKeepsNoMomentColumn: an engine nobody sweeps naively never
// materialises the pair-moment column and never slides one — index, affine and
// planner-routed queries, MEC by any method, single-pair values and the
// paper's timed W_N sweep (a raw-series scan) all leave it alone, epoch after
// epoch.  One naive sweep then materialises it, and the next Advance carries it.
func TestNoNaiveSweepKeepsNoMomentColumn(t *testing.T) {
	fx := makeStreamFixture(t, 20, 90, 6, 7)
	e, err := Build(fx.window, Config{
		Clusters: 4, Seed: 5,
		Stream: StreamConfig{DriftBound: 0.5},
		Cache:  qcache.Options{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := e.Data().IDs()
	for round := 0; round < 3; round++ {
		specs := []plan.QuerySpec{
			plan.Interval(measure.Correlation, interval.GreaterThan(0.5+0.01*float64(round))),
			plan.Interval(measure.EuclideanDistance, interval.AtMost(5)),
			plan.TopK(measure.Covariance, 5, true),
			plan.Interval(measure.Mean, interval.GreaterThan(0)),
		}
		for _, method := range []Method{MethodIndex, MethodAffine, MethodAuto} {
			_, plans, err := Run(e.View(), specs, method, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				if p.Method == MethodNaive && p.Spec.Measure != measure.Mean {
					t.Fatalf("the planner routed %v to a naive sweep: the fixture does not test what it says", p.Spec)
				}
			}
		}
		for _, method := range []Method{MethodNaive, MethodAffine} {
			if _, err := e.ComputePairwise(measure.Correlation, ids, method); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.PairwiseSweepNaive(measure.Cosine); err != nil {
			t.Fatal(err)
		}
		if s := e.StreamStats(); s.MomentFills != 0 || s.MomentSweeps != 0 || e.escapedState().moments.col.Load() != nil {
			t.Fatalf("epoch %d: %d moment fills, %d sweeps with no naive sweep asked", round, s.MomentFills, s.MomentSweeps)
		}
		advanceBoth(t, fx.ticks[round:round+1], e)
	}
	if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.5), MethodNaive); err != nil {
		t.Fatal(err)
	}
	advanceBoth(t, fx.ticks[3:4], e)
	if s := e.StreamStats(); s.MomentFills != 1 || s.MomentSweeps != 1 || e.escapedState().moments.col.Load() == nil {
		t.Fatalf("after one naive sweep and an Advance: %d moment fills, %d sweeps, column carried: %v",
			s.MomentFills, s.MomentSweeps, e.escapedState().moments.col.Load() != nil)
	}
}
