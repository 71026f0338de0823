package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/timeseries"
)

// This file pins the epoch base columns (basecolumns.go) and the value
// hand-off from the sweep to the cache: every engine, cache or not, evaluates
// each affine base once per epoch into a column whose values — and the derived
// values a sweep takes from them — are the reference routes' bit for bit;
// a cache-enabled engine answers every sweep exactly as its cache-off twin and
// stores exactly those values; no column is carried across an Advance.

// sweepSpecs is the query battery of one measure: two intervals that do not
// contain each other (so both miss the cache) and both top-k directions.
func sweepSpecs(m measure.Measure) []plan.QuerySpec {
	return []plan.QuerySpec{
		plan.Interval(m, interval.Between(-0.5, 0.9)),
		plan.Interval(m, interval.GreaterThan(0.2)),
		plan.TopK(m, 7, true),
		plan.TopK(m, 5, false),
	}
}

// requireSameResults compares two result lists bit for bit.
func requireSameResults(t *testing.T, tag string, got, want []QueryResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		mustEqualResults(t, fmt.Sprintf("%s[%d]", tag, i), got[i], want[i])
	}
}

// requireSweepParity checks the epoch's BaseValues against the reference
// routes, then asks the cached engine and its cache-off twin the whole
// battery — single calls first, then one mixed batch — with both sweep
// methods, and checks every stored interval entry and every top-k value
// against the reference route of its method (referenceValue).
func requireSweepParity(t *testing.T, cached, cold *Engine, tag string) {
	t.Helper()
	st := cached.escapedState()
	requireBaseValuesOfReference(t, tag, st)
	for _, method := range []Method{MethodNaive, MethodAffine} {
		var all []plan.QuerySpec
		for _, m := range pairwiseMeasures() {
			for _, spec := range sweepSpecs(m) {
				label := fmt.Sprintf("%s/%v/%v", tag, spec, method)
				want, err := runSpecs(cold, []plan.QuerySpec{spec}, method)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				got, err := runSpecs(cached, []plan.QuerySpec{spec}, method)
				if err != nil {
					t.Fatalf("%s cached: %v", label, err)
				}
				requireSameResults(t, label, got, want)
				if spec.Kind != plan.KindInterval {
					requireValuesOfPairEvaluator(t, label, st, spec.Measure, method, got[0])
					continue
				}
				stored, tier, ok := st.cache.Lookup(qcache.IntervalKey(spec.Measure, method, spec.Interval), st.epoch)
				if !ok || tier != qcache.TierExact {
					t.Fatalf("%s: no exact entry after the miss (tier %v)", label, tier)
				}
				if !slices.Equal(stored.Pairs, want[0].Pairs) || len(stored.Values) != len(stored.Pairs) {
					t.Fatalf("%s: stored %d pairs / %d values, want %d", label, len(stored.Pairs), len(stored.Values), len(want[0].Pairs))
				}
				requireValuesOfPairEvaluator(t, label, st, spec.Measure, method, QueryResult{Pairs: stored.Pairs, Values: stored.Values})
			}
			// The batch asks fresh predicates, so it sweeps too.
			all = append(all,
				plan.Interval(m, interval.Between(-0.25, 0.95)),
				plan.TopK(m, 9, true))
		}
		want, err := runSpecs(cold, all, method)
		if err != nil {
			t.Fatalf("%s batch cold: %v", tag, err)
		}
		got, err := runSpecs(cached, all, method)
		if err != nil {
			t.Fatalf("%s batch cached: %v", tag, err)
		}
		requireSameResults(t, fmt.Sprintf("%s/batch/%v", tag, method), got, want)
	}
}

// requireValuesOfPairEvaluator checks the values a sweep reported against the
// reference route of the method at the epoch (referenceValue), bit for bit.
func requireValuesOfPairEvaluator(t *testing.T, label string, st *engineState, m measure.Measure, method Method, res QueryResult) {
	t.Helper()
	for i, pair := range res.Pairs {
		v, err := referenceValue(st, m, pair, method)
		if err != nil {
			t.Fatalf("%s: reference value of %v: %v", label, pair, err)
		}
		if math.Float64bits(res.Values[i]) != math.Float64bits(v) {
			t.Fatalf("%s: sweep value of %v = %v, reference %v", label, pair, res.Values[i], v)
		}
	}
}

// requireBaseValuesOfReference checks BaseValues — the door MEC, repair and
// the cache read base values through — on every pair of the window, those
// outside a restricted universe or without a relationship included, against
// the reference route of each method, bit for bit.
func requireBaseValuesOfReference(t *testing.T, label string, st *engineState) {
	t.Helper()
	pairs := st.data.AllPairs()
	got := make([]float64, len(pairs))
	for _, method := range []Method{MethodNaive, MethodAffine} {
		for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
			if err := st.BaseValues(base, pairs, method, got); err != nil {
				t.Fatal(err)
			}
			for i, pair := range pairs {
				want, err := referenceValue(st, base, pair, method)
				if err != nil || math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s: BaseValues %v by %v of %v = %v, reference %v (%v)", label, base, method, pair, got[i], want, err)
				}
			}
		}
	}
}

// referenceValue is a canonical pair's value at an epoch by the reference
// route of a sweep method, which shares no code with the engine's
// evaluators: for the affine method affine.Transform.PropagateMeasure over
// the pair's relationship and its pivot's summary, with the pair's separable
// parameter from the window's moments; for the naive method, and for a pair
// without a relationship, measure.EvalPair on the window's series.
func referenceValue(st *engineState, m measure.Measure, pair timeseries.Pair, method Method) (float64, error) {
	sp := measure.Lookup(m)
	layout := st.rel.Layout()
	if slot, ok := layout.Slot(pair); ok && method == MethodAffine {
		param := sp.Param(st.seriesMoments.Stat(pair.U), st.seriesMoments.Stat(pair.V))
		return st.rel.At(slot).Transform.PropagateMeasure(sp, sp.Moment(st.summaries[layout.PivotOf(slot)]), param, st.data.NumSamples())
	}
	return evalPair(st, m, pair)
}

// twinEngines builds a cache-enabled engine and its cache-off twin over the
// same fixture.  n = 40 gives 780 pairs: several kernel chunks per sweep and
// several chunks per block at every parallelism level.
func twinEngines(t *testing.T, cfg Config, cache qcache.Options, streamLen, limit int) (cached, cold *Engine, fx *streamFixture) {
	t.Helper()
	fx = makeStreamFixture(t, 40, 90, streamLen, 7)
	cachedCfg := cfg
	cachedCfg.Cache = cache
	cached = buildLimited(t, fx.window, cachedCfg, limit)
	cold = buildLimited(t, makeStreamFixture(t, 40, 90, streamLen, 7).window, cfg, limit)
	return cached, cold, fx
}

func advanceBoth(t *testing.T, ticks [][]float64, engines ...*Engine) {
	t.Helper()
	for _, e := range engines {
		appendTicks(t, e, ticks)
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBaseColumnsRestrictedUniverseAndPartialLayout: the same parity over a
// partial layout, as an AssignedPairsOnly universe (filled by pivot through
// the slot → position table) and as the full universe, where the fill takes
// the pairs without a relationship from the kernels, which the reference
// route's measure.EvalPair matches bit for bit.
func TestBaseColumnsRestrictedUniverseAndPartialLayout(t *testing.T) {
	for _, restricted := range []bool{true, false} {
		cfg := Config{
			Clusters: 4, Seed: 5, Parallelism: 2,
			AssignedPairsOnly: restricted,
			Stream:            StreamConfig{DriftBound: 0.5},
		}
		cached, cold, fx := twinEngines(t, cfg, qcache.Options{Enabled: true}, 4, 500)
		st := cached.escapedState()
		if restricted && (st.pairs == nil || len(st.pairs) >= st.data.NumPairs()) {
			t.Fatalf("universe is not restricted: %d of %d pairs", len(st.pairs), st.data.NumPairs())
		}
		if !restricted && st.table.FallbackPairs == 0 {
			t.Fatal("every pair has a relationship: the naive fallback inside the affine fill is not exercised")
		}
		label := fmt.Sprintf("restricted=%v ", restricted)
		requireSweepParity(t, cached, cold, label+"epoch0")
		advanceBoth(t, fx.ticks, cached, cold)
		requireSweepParity(t, cached, cold, label+"epoch1")
		for name, e := range map[string]*Engine{"cached": cached, "cold": cold} {
			if s := e.StreamStats(); s.SweepBaseFills != 4 || s.MomentFills != 1 {
				t.Fatalf("%s%s engine: %d base fills and %d moment fills over two epochs, want 4 and 1", label, name, s.SweepBaseFills, s.MomentFills)
			}
		}
	}
}

// TestBaseColumnFilledOncePerEpoch: after the first affine sweep of a base at
// an epoch, no affine sweep of that base — another derived measure, a top-k, a
// batch — evaluates it again, with the cache on or off; a new epoch starts with
// no column.  Naive sweeps keep no column at all: they report the pairs the
// stage prescreened and refined instead.
func TestBaseColumnFilledOncePerEpoch(t *testing.T) {
	cached, cold, fx := twinEngines(t, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}}, qcache.Options{Enabled: true}, 2, 0)
	for name, e := range map[string]*Engine{"cached": cached, "cold": cold} {
		counters := func() (fills, reuses int64) {
			s := e.StreamStats()
			return s.SweepBaseFills, s.SweepBaseReuses
		}
		explain := func(spec plan.QuerySpec, method Method) plan.Plan {
			t.Helper()
			_, p, err := e.Explain(spec, method)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		if got := explain(plan.Interval(measure.Cosine, interval.GreaterThan(0.3)), MethodAffine).BaseValues; got != "filled" {
			t.Fatalf("%s: first dot-product sweep reported base values %q, want filled", name, got)
		}
		if fills, reuses := counters(); fills != 1 || reuses != 0 {
			t.Fatalf("%s: after the first sweep: %d fills, %d reuses, want 1 and 0", name, fills, reuses)
		}
		// Same base, same method: a different derived measure, a top-k, and a
		// batch of both.
		for i, spec := range []plan.QuerySpec{
			plan.Interval(measure.EuclideanDistance, interval.LessThan(40)),
			plan.TopK(measure.DotProduct, 5, true),
		} {
			if got := explain(spec, MethodAffine).BaseValues; got != "reused" {
				t.Fatalf("%s: sweep %d of a warm base reported base values %q, want reused", name, i, got)
			}
		}
		if _, err := runSpecs(e, []plan.QuerySpec{
			plan.Interval(measure.Jaccard, interval.GreaterThan(0.1)),
			plan.TopK(measure.Cosine, 3, false),
		}, MethodAffine); err != nil {
			t.Fatal(err)
		}
		if fills, reuses := counters(); fills != 1 || reuses != 3 {
			t.Fatalf("%s: after four sweeps of one base: %d fills, %d reuses, want 1 and 3", name, fills, reuses)
		}
		// The naive method of the same base touches no column.
		p := explain(plan.TopK(measure.Cosine, 3, true), MethodNaive)
		if p.BaseValues != "" || p.SketchedPairs != e.escapedState().numUniversePairs() || p.SketchRefinedPairs == 0 || p.SketchRefinedPairs >= p.SketchedPairs {
			t.Fatalf("%s: naive sweep reported base values %q, %d pairs prescreened, %d refined", name, p.BaseValues, p.SketchedPairs, p.SketchRefinedPairs)
		}
		if e == cached {
			// A repeat is an exact hit: no sweep, no column traffic.
			if p := explain(plan.TopK(measure.Cosine, 3, true), MethodNaive); p.BaseValues != "" || p.SketchedPairs != 0 {
				t.Fatalf("an exact hit reported base values %q, %d pairs prescreened", p.BaseValues, p.SketchedPairs)
			}
		}
		if fills, reuses := counters(); fills != 1 || reuses != 3 {
			t.Fatalf("%s: %d fills, %d reuses, want 1 and 3", name, fills, reuses)
		}

		advanceBoth(t, fx.ticks, e)
		if got := explain(plan.TopK(measure.DotProduct, 6, true), MethodAffine).BaseValues; got != "filled" {
			t.Fatalf("%s: first sweep of the new epoch reported base values %q, want filled", name, got)
		}
		if fills, _ := counters(); fills != 2 {
			t.Fatalf("%s: %d fills after the new epoch's first sweep, want 2", name, fills)
		}
	}
}

// TestNoAffineSweepAllocatesNoBaseColumn: an engine nobody sweeps by the affine
// method never allocates a base column — index, naive and planner-routed
// queries, MEC and single-pair values by the affine method and the paper's
// timed W_A sweep (its own moments, its own values) all leave both slots
// empty, epoch after epoch.  One affine sweep then fills its base's column and
// no other, and the next epoch starts with none.
func TestNoAffineSweepAllocatesNoBaseColumn(t *testing.T) {
	fx := makeStreamFixture(t, 20, 90, 4, 7)
	e, err := Build(fx.window, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func() (cov, dot bool) {
		cols := e.escapedState().cols
		return cols.cov.values != nil, cols.dot.values != nil
	}
	ids := e.Data().IDs()
	for round := 0; round < 3; round++ {
		specs := []plan.QuerySpec{
			plan.Interval(measure.Correlation, interval.GreaterThan(0.5)),
			plan.Interval(measure.EuclideanDistance, interval.AtMost(5)),
			plan.TopK(measure.Covariance, 5, true),
		}
		for _, method := range []Method{MethodIndex, MethodNaive, MethodAuto} {
			_, plans, err := Run(e.View(), specs, method, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				if p.Method == MethodAffine {
					t.Fatalf("the planner routed %v to an affine sweep: the fixture does not test what it says", p.Spec)
				}
			}
		}
		if _, err := e.ComputePairwise(measure.Correlation, ids, MethodAffine); err != nil {
			t.Fatal(err)
		}
		if _, err := pipelineSweep(e, measure.Cosine, MethodAffine); err != nil {
			t.Fatal(err)
		}
		if cov, dot := allocated(); e.StreamStats().SweepBaseFills != 0 || cov || dot {
			t.Fatalf("epoch %d: %d base fills, columns allocated: %v / %v, with no affine sweep asked", round, e.StreamStats().SweepBaseFills, cov, dot)
		}
		advanceBoth(t, fx.ticks[round:round+1], e)
	}
	if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.5), MethodAffine); err != nil {
		t.Fatal(err)
	}
	if cov, dot := allocated(); e.StreamStats().SweepBaseFills != 1 || !cov || dot {
		t.Fatalf("after one correlation sweep: %d base fills, covariance column %v, dot-product column %v", e.StreamStats().SweepBaseFills, cov, dot)
	}
	advanceBoth(t, fx.ticks[3:4], e)
	if cov, dot := allocated(); cov || dot {
		t.Fatalf("a base column crossed the Advance: %v / %v", cov, dot)
	}
}

// TestBaseColumnsPinnedView: a View pinned before an Advance keeps answering
// from its own epoch's columns — the old answers, not the new epoch's.
func TestBaseColumnsPinnedView(t *testing.T) {
	cached, _, fx := twinEngines(t, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}}, qcache.Options{Enabled: true}, 6, 0)
	specs := append(sweepSpecs(measure.Correlation), sweepSpecs(measure.EuclideanDistance)...)
	old := cached.View()
	before, _, err := Run(old, specs, MethodAffine, false)
	if err != nil {
		t.Fatal(err)
	}
	advanceBoth(t, fx.ticks, cached)
	now, err := runSpecs(cached, specs, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(now, before) {
		t.Fatal("the Advance changed no answer: the pinned view proves nothing")
	}
	// The old epoch's cache entries are gone (the cache moved on), so these
	// re-sweep — from the old epoch's columns.
	fills := cached.StreamStats().SweepBaseFills
	again, _, err := Run(old, specs, MethodAffine, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "pinned view", again, before)
	if got := cached.StreamStats().SweepBaseFills; got != fills {
		t.Fatalf("re-sweeping the pinned epoch filled %d more columns", got-fills)
	}
}

// TestBaseColumnsConcurrentSweepsDuringAdvance sweeps one engine from many
// goroutines — racing each other to fill every epoch's columns — while the
// writer advances it.  Each goroutine checks its answers against the epoch it
// pinned.  Run with -race (CI does).
func TestBaseColumnsConcurrentSweepsDuringAdvance(t *testing.T) {
	const slide, rounds = 3, 8
	cached, _, fx := twinEngines(t, Config{Clusters: 4, Seed: 5, Parallelism: 2, Stream: StreamConfig{DriftBound: 0.5}},
		qcache.Options{Enabled: true}, slide*rounds, 0)
	measures := []measure.Measure{measure.Covariance, measure.Correlation, measure.Cosine, measure.EuclideanDistance}

	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			// The writer starts once every sweeper has finished (or failed) its
			// first round, so the overlap cannot be lost to scheduling.
			started := sync.OnceFunc(ready.Done)
			defer started()
			m := measures[g%len(measures)]
			method := []Method{MethodNaive, MethodAffine}[g/len(measures)]
			sp := measure.Lookup(m)
			for i := 0; !stop.Load(); i++ {
				view := cached.View()
				// A fresh lower bound per iteration, so most queries sweep.
				iv := interval.GreaterThan(0.05 + 0.001*float64(i%500) + 0.0001*float64(g))
				res, _, err := Run(view, []plan.QuerySpec{plan.Interval(m, iv), plan.TopK(m, 4, !sp.Decreasing)}, method, false)
				if err != nil {
					t.Error(err)
					return
				}
				for _, pair := range res[0].Pairs {
					if v, err := referenceValue(view.engineState, m, pair, method); err != nil || !iv.Contains(v) {
						t.Errorf("%v by %v: row %v has value %v (%v), outside %v", m, method, pair, v, err, iv)
						return
					}
				}
				for j, pair := range res[1].Pairs {
					if v, err := referenceValue(view.engineState, m, pair, method); err != nil || math.Float64bits(v) != math.Float64bits(res[1].Values[j]) {
						t.Errorf("%v by %v: top-k row %v ranked with %v, its value at the pinned epoch is %v (%v)", m, method, pair, res[1].Values[j], v, err)
						return
					}
				}
				started()
			}
		}(g)
	}
	ready.Wait()
	for r := 0; r < rounds; r++ {
		advanceBoth(t, fx.ticks[r*slide:(r+1)*slide], cached)
	}
	stop.Store(true)
	wg.Wait()
	if s := cached.StreamStats(); s.SweepBaseFills == 0 || s.SweepBaseReuses == 0 {
		t.Fatalf("the sweeps shared no column: %d fills, %d reuses", s.SweepBaseFills, s.SweepBaseReuses)
	}
}

// The window's moments live on the DataMatrix and the centers' on the
// clustering (one home each); the engine keeps nothing beside them.

// TestSeriesStatsAreTheWindowMemo: at a build, on every epoch — refresh
// epochs (the periodic ones and a whole-window slide) and the others alike —
// the per-series statistics every W_A path reads are the window's memoised
// moments, the very object W_N's kernels read.
func TestSeriesStatsAreTheWindowMemo(t *testing.T) {
	const n, window, slide, every = 12, 40, 3, 3
	fx := makeStreamFixture(t, n, window, slide*7+window, 23)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 2, Stream: StreamConfig{DriftBound: 0.5, StatsRefreshEvery: every}})
	if err != nil {
		t.Fatal(err)
	}
	requireMemo := func(label string) {
		t.Helper()
		st := e.escapedState()
		_, mom, err := st.naiveKernel()
		if err != nil {
			t.Fatal(err)
		}
		if st.seriesMoments != st.data.Moments() || mom != st.seriesMoments {
			t.Fatalf("%s: the engine's per-series statistics are not the window's memo", label)
		}
	}
	requireMemo("build")
	at := 0
	for epoch := 1; epoch <= 7; epoch++ {
		appendTicks(t, e, fx.ticks[at:at+slide])
		at += slide
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		requireMemo(fmt.Sprintf("epoch %d", epoch))
	}
	appendTicks(t, e, fx.ticks[at:at+window])
	if _, err := e.Advance(); err != nil {
		t.Fatal(err)
	}
	requireMemo("whole-window slide")
}

// TestSnapshotRestoreAgreesOnCenterMemo: an engine restored from the PR 17
// fixture holds a decoded clustering — another object than the cold build's —
// and the two agree bit for bit on what each memoises about its centers.
func TestSnapshotRestoreAgreesOnCenterMemo(t *testing.T) {
	fixture, err := os.ReadFile("testdata/snapshot_pr17.bin")
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := snapshotFixtureBytes(t)
	restored, err := BuildFromSnapshot(cold.Data(), bytes.NewReader(fixture), Config{
		Clusters: 3, Stream: StreamConfig{DriftBound: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := cold.Relationships().Clustering, restored.Relationships().Clustering
	if a == b {
		t.Fatal("the restored engine shares the cold build's clustering object")
	}
	sameColumn := func(label string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) || len(want) != a.K() {
			t.Fatalf("%s: %d values against %d for %d centers", label, len(got), len(want), a.K())
		}
		for l := range want {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("%s of center %d: restored %v, cold %v", label, l, got[l], want[l])
			}
		}
	}
	am, bm := a.CenterMoments(), b.CenterMoments()
	sameColumn("Sum", bm.Sum, am.Sum)
	sameColumn("Mean", bm.Mean, am.Mean)
	sameColumn("Variance", bm.Variance, am.Variance)
	sameColumn("SqNorm", bm.SqNorm, am.SqNorm)
	for _, m := range measure.ByClass(measure.LocationClass) {
		al, err := a.CenterLocations(m)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := b.CenterLocations(m)
		if err != nil {
			t.Fatal(err)
		}
		sameColumn(m.String(), bl, al)
		// And the engines' affine location estimates, which read them.
		as, err := cold.ComputeLocation(m, cold.Data().IDs(), MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := restored.ComputeLocation(m, restored.Data().IDs(), MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(as, bs) {
			t.Fatalf("%v: the affine location sweeps of the cold and the restored engine differ", m)
		}
	}
}

// BenchmarkAffineBaseColumn times the epoch base-column fills of both bases —
// every relationship's W_A propagation (fillAffineColumn) for covariance and
// for the dot product, one op — on an engine at the streaming benchmark's
// scale (168 series × 360 samples, full fit), so the layer's cost is
// reproducible without the lifecycle.  Each fill writes into the previous
// one's buffer, as an epoch recycling its spare does.
func BenchmarkAffineBaseColumn(b *testing.B) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 168, NumSamples: 360, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := Build(d, Config{Clusters: 6, Seed: 1, SkipIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	st := e.current()
	bases := []*measure.Spec{measure.Lookup(measure.Covariance), measure.Lookup(measure.DotProduct)}
	cols := make([][]float64, len(bases))
	fill := func() {
		for i, sp := range bases {
			if cols[i], err = st.fillAffineColumn(sp, cols[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}

// BenchmarkComputePairwise times a pairwise MEC query — correlation over 16
// series spread across the window, by Affine and by Naive, one op — on the
// engine BenchmarkAffineBaseColumn builds.  At the build epoch the naive
// route reads the fit's covariance column, the affine one propagates each
// cell's relationship; both run a row's cells a chunk at a time in pooled
// scratch, so an op allocates the matrix and the fan-out's bookkeeping and
// nothing per cell.
func BenchmarkComputePairwise(b *testing.B) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 168, NumSamples: 360, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := Build(d, Config{Clusters: 6, Seed: 1, SkipIndex: true, Parallelism: 2})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]timeseries.SeriesID, 16)
	for i := range ids {
		ids[i] = timeseries.SeriesID(i * 10)
	}
	mec := func() {
		for _, method := range []Method{MethodAffine, MethodNaive} {
			if _, err := e.ComputePairwise(measure.Correlation, ids, method); err != nil {
				b.Fatal(err)
			}
		}
	}
	mec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mec()
	}
}
