package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/stats"
)

// This file pins the epoch base columns (basecolumns.go) and the value
// hand-off from the sweep to the cache: a cache-enabled engine answers every
// sweep exactly as its cache-off twin, stores exactly the values the per-pair
// evaluators would have captured, evaluates each affine base once per epoch
// and never carries a base column across an Advance.

// sweepSpecs is the query battery of one measure: two intervals that do not
// contain each other (so both miss the cache) and both top-k directions.
func sweepSpecs(m stats.Measure) []plan.QuerySpec {
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

// requireSweepParity asks the cached engine and its cache-off twin the whole
// battery — single calls first, then one mixed batch — with both sweep
// methods, and checks every stored interval entry against the per-pair
// evaluator of its method (what cacheStore captured before the sweep handed
// its values over).
func requireSweepParity(t *testing.T, cached, cold *Engine, tag string) {
	t.Helper()
	st := cached.state()
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
					continue
				}
				stored, tier, ok := st.cache.Lookup(qcache.IntervalKey(spec.Measure, method, spec.Interval), st.epoch)
				if !ok || tier != qcache.TierExact {
					t.Fatalf("%s: no exact entry after the miss (tier %v)", label, tier)
				}
				if !slices.Equal(stored.Pairs, want[0].Pairs) || len(stored.Values) != len(stored.Pairs) {
					t.Fatalf("%s: stored %d pairs / %d values, want %d", label, len(stored.Pairs), len(stored.Values), len(want[0].Pairs))
				}
				for i, pair := range stored.Pairs {
					v, err := st.PairValue(spec.Measure, pair, method)
					if err != nil {
						t.Fatalf("%s: PairValue(%v): %v", label, pair, err)
					}
					if math.Float64bits(stored.Values[i]) != math.Float64bits(v) {
						t.Fatalf("%s: stored value of %v = %v, PairValue = %v", label, pair, stored.Values[i], v)
					}
				}
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

// twinEngines builds a cache-enabled engine and its cache-off twin over the
// same fixture.  n = 40 gives 780 pairs: several kernel chunks per sweep and
// several chunks per block at every parallelism level.
func twinEngines(t *testing.T, cfg Config, cache qcache.Options, streamLen int) (cached, cold *Engine, fx *streamFixture) {
	t.Helper()
	fx = makeStreamFixture(t, 40, 90, streamLen, 7)
	cachedCfg := cfg
	cachedCfg.Cache = cache
	cached, err := Build(fx.window, cachedCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err = Build(makeStreamFixture(t, 40, 90, streamLen, 7).window, cfg)
	if err != nil {
		t.Fatal(err)
	}
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

func TestBaseColumnsMatchColdTwin(t *testing.T) {
	const rounds, slide = 3, 4
	for _, p := range determinismLevels {
		t.Run(fmt.Sprintf("parallelism-%d", p), func(t *testing.T) {
			cfg := Config{Clusters: 4, Seed: 5, Parallelism: p, Stream: StreamConfig{DriftBound: 0.5}}
			cached, cold, fx := twinEngines(t, cfg, qcache.Options{Enabled: true}, rounds*slide)
			requireSweepParity(t, cached, cold, "epoch0")
			for r := 0; r < rounds; r++ {
				advanceBoth(t, fx.ticks[r*slide:(r+1)*slide], cached, cold)
				requireSweepParity(t, cached, cold, fmt.Sprintf("epoch%d", r+1))
			}
			// Two affine bases, filled once per epoch whatever the number of
			// sweeps; the twin never keeps a column.  The naive sweeps of both
			// engines classify against the pair-moment column, materialised by
			// the first of them and carried by every Advance since.
			if s := cached.StreamStats(); s.SweepBaseFills != 2*(rounds+1) || s.SweepBaseReuses == 0 {
				t.Fatalf("cached engine: %d fills, %d reuses, want %d fills", s.SweepBaseFills, s.SweepBaseReuses, 2*(rounds+1))
			}
			if s := cold.StreamStats(); s.SweepBaseFills != 0 || s.SweepBaseReuses != 0 {
				t.Fatalf("cache-off twin counted base columns: %+v", s)
			}
			for name, e := range map[string]*Engine{"cached": cached, "cold": cold} {
				if s := e.StreamStats(); s.MomentFills != 1 || s.MomentSweeps == 0 || s.MomentRefinedPairs == 0 {
					t.Fatalf("%s engine: %d moment fills, %d sweeps, %d refined pairs, want one fill carried over %d epochs",
						name, s.MomentFills, s.MomentSweeps, s.MomentRefinedPairs, rounds)
				}
			}
		})
	}
}

// TestBaseColumnsRestrictedUniverseAndPruning: the same parity over an
// AssignedPairsOnly universe (columns indexed by position in the restricted
// list) with MaxLSFD pruning, where affinePairBase falls back to the naive
// evaluation for the pruned pairs inside the column fill.
func TestBaseColumnsRestrictedUniverseAndPruning(t *testing.T) {
	cfg := Config{
		Clusters: 4, Seed: 5, Parallelism: 2,
		AssignedPairsOnly: true,
		MaxRelationships:  500,
		MaxLSFD:           0.05,
		Stream:            StreamConfig{DriftBound: 0.5},
	}
	cached, cold, fx := twinEngines(t, cfg, qcache.Options{Enabled: true}, 4)
	st := cached.state()
	if st.pairs == nil || len(st.pairs) >= st.data.NumPairs() {
		t.Fatalf("universe is not restricted: %d of %d pairs", len(st.pairs), st.data.NumPairs())
	}
	if st.table.FallbackPairs == 0 {
		t.Fatal("fixture prunes no relationship: the naive fallback inside the affine fill is not exercised")
	}
	requireSweepParity(t, cached, cold, "epoch0")
	advanceBoth(t, fx.ticks, cached, cold)
	requireSweepParity(t, cached, cold, "epoch1")
	if s := cached.StreamStats(); s.SweepBaseFills != 4 || s.MomentFills != 1 {
		t.Fatalf("%d base fills and %d moment fills over two epochs, want 4 and 1", s.SweepBaseFills, s.MomentFills)
	}
}

// TestBaseColumnFilledOncePerEpoch: after the first affine sweep of a base at
// an epoch, no affine sweep of that base — another derived measure, a top-k, a
// batch — evaluates it again; a new epoch starts with no column.  Naive sweeps
// keep no column at all: they report the pairs the stage prescreened and
// refined instead.
func TestBaseColumnFilledOncePerEpoch(t *testing.T) {
	cached, _, fx := twinEngines(t, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}}, qcache.Options{Enabled: true}, 2)
	counters := func() (fills, reuses int64) {
		s := cached.StreamStats()
		return s.SweepBaseFills, s.SweepBaseReuses
	}
	explain := func(spec plan.QuerySpec, method Method) plan.Plan {
		t.Helper()
		_, p, err := cached.Explain(spec, method)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if got := explain(plan.Interval(stats.Cosine, interval.GreaterThan(0.3)), MethodAffine).BaseValues; got != "filled" {
		t.Fatalf("first dot-product sweep reported base values %q, want filled", got)
	}
	if fills, reuses := counters(); fills != 1 || reuses != 0 {
		t.Fatalf("after the first sweep: %d fills, %d reuses, want 1 and 0", fills, reuses)
	}
	// Same base, same method: a different derived measure, a top-k, and a
	// batch of both.
	for i, spec := range []plan.QuerySpec{
		plan.Interval(stats.EuclideanDistance, interval.LessThan(40)),
		plan.TopK(stats.DotProduct, 5, true),
	} {
		if got := explain(spec, MethodAffine).BaseValues; got != "reused" {
			t.Fatalf("sweep %d of a warm base reported base values %q, want reused", i, got)
		}
	}
	if _, err := runSpecs(cached, []plan.QuerySpec{
		plan.Interval(stats.Jaccard, interval.GreaterThan(0.1)),
		plan.TopK(stats.Cosine, 3, false),
	}, MethodAffine); err != nil {
		t.Fatal(err)
	}
	if fills, reuses := counters(); fills != 1 || reuses != 3 {
		t.Fatalf("after four sweeps of one base: %d fills, %d reuses, want 1 and 3", fills, reuses)
	}
	// The naive method of the same base touches no column.
	p := explain(plan.TopK(stats.Cosine, 3, true), MethodNaive)
	if p.BaseValues != "" || p.SketchedPairs != cached.state().numUniversePairs() || p.SketchRefinedPairs == 0 || p.SketchRefinedPairs >= p.SketchedPairs {
		t.Fatalf("naive sweep reported base values %q, %d pairs prescreened, %d refined", p.BaseValues, p.SketchedPairs, p.SketchRefinedPairs)
	}
	// A repeat is an exact hit: no sweep, no column traffic.
	if p := explain(plan.TopK(stats.Cosine, 3, true), MethodNaive); p.BaseValues != "" || p.SketchedPairs != 0 {
		t.Fatalf("an exact hit reported base values %q, %d pairs prescreened", p.BaseValues, p.SketchedPairs)
	}
	if fills, reuses := counters(); fills != 1 || reuses != 3 {
		t.Fatalf("%d fills, %d reuses, want 1 and 3", fills, reuses)
	}

	advanceBoth(t, fx.ticks, cached)
	if got := explain(plan.TopK(stats.DotProduct, 6, true), MethodAffine).BaseValues; got != "filled" {
		t.Fatalf("first sweep of the new epoch reported base values %q, want filled", got)
	}
	if fills, _ := counters(); fills != 2 {
		t.Fatalf("%d fills after the new epoch's first sweep, want 2", fills)
	}
}

// TestBaseColumnBudget: a cache whose budget share cannot hold one column
// keeps none, and every answer is still the twin's.
func TestBaseColumnBudget(t *testing.T) {
	// 780 pairs need 6 240 bytes; a quarter of 16 KiB is 4 096.
	cached, cold, _ := twinEngines(t, Config{Clusters: 4, Seed: 5}, qcache.Options{Enabled: true, MaxBytes: 16 << 10}, 0)
	for _, m := range []stats.Measure{stats.Correlation, stats.Cosine} {
		for _, method := range []Method{MethodNaive, MethodAffine} {
			specs := sweepSpecs(m)
			want, err := runSpecs(cold, specs, method)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSpecs(cached, specs, method)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("%v/%v", m, method), got, want)
		}
	}
	s := cached.StreamStats()
	if s.SweepBaseFills != 0 || s.SweepBaseReuses != 0 {
		t.Fatalf("a column over budget was kept: %d fills, %d reuses", s.SweepBaseFills, s.SweepBaseReuses)
	}
	if s.CacheEntries == 0 {
		t.Fatal("the cache itself stored nothing: the budget is too small to tell the two apart")
	}
}

// TestBaseColumnsPinnedView: a View pinned before an Advance keeps answering
// from its own epoch's columns — the old answers, not the new epoch's.
func TestBaseColumnsPinnedView(t *testing.T) {
	cached, _, fx := twinEngines(t, Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}}, qcache.Options{Enabled: true}, 6)
	specs := append(sweepSpecs(stats.Correlation), sweepSpecs(stats.EuclideanDistance)...)
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
		qcache.Options{Enabled: true}, slide*rounds)
	measures := []stats.Measure{stats.Covariance, stats.Correlation, stats.Cosine, stats.EuclideanDistance}

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
					if v, err := view.PairValue(m, pair, method); err != nil || !iv.Contains(v) {
						t.Errorf("%v by %v: row %v has value %v (%v), outside %v", m, method, pair, v, err, iv)
						return
					}
				}
				for j, pair := range res[1].Pairs {
					if v, err := view.PairValue(m, pair, method); err != nil || math.Float64bits(v) != math.Float64bits(res[1].Values[j]) {
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
