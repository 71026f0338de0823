package core

import (
	"fmt"
	"math"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
)

// This file pins the result cache's correctness contract end to end: with the
// cache enabled, every query — first issue (miss + store), repeat issue (exact
// hit), semantically narrower issue (containment), and re-issue after an
// Advance (delta repair) — returns results byte-identical to a twin engine
// running the same schedule with the cache disabled.  The harness runs at
// every determinism parallelism level, over a cold build plus three streaming
// epochs with a positive drift bound (so the repair path sees real stale
// sets).

// cacheCase is one query of the cache-parity battery: the probe itself plus
// the semantically contained follow-up that must be served from its entry.
type cacheCase struct {
	name     string
	probe    func(e *Engine) (any, error)
	narrower func(e *Engine) (any, error)
}

func cacheParityCases() []cacheCase {
	var cases []cacheCase
	methods := []Method{MethodNaive, MethodAffine, MethodIndex, MethodAuto}
	for _, m := range measure.All() {
		m := m
		for _, method := range methods {
			method := method
			if method == MethodIndex && !measure.Lookup(m).Indexable {
				continue
			}
			cases = append(cases,
				cacheCase{
					name: fmt.Sprintf("interval/%v/%v", m, method),
					probe: func(e *Engine) (any, error) {
						return e.Interval(m, interval.Between(-0.5, 0.9), method)
					},
					narrower: func(e *Engine) (any, error) {
						return e.Interval(m, interval.Between(-0.1, 0.6), method)
					},
				},
				cacheCase{
					name: fmt.Sprintf("topk/%v/%v", m, method),
					probe: func(e *Engine) (any, error) {
						return e.TopK(m, 10, true, method)
					},
					narrower: func(e *Engine) (any, error) {
						return e.TopK(m, 4, true, method)
					},
				},
			)
		}
	}
	// Batched entry points run through the same executor choke point; the
	// batch mixes fresh and cache-served predicates.
	cases = append(cases, cacheCase{
		name: "interval-batch/covariance",
		probe: func(e *Engine) (any, error) {
			return runSpecs(e, []plan.QuerySpec{
				plan.Interval(measure.Covariance, interval.Between(-0.5, 0.9)),
				plan.Interval(measure.Correlation, interval.Between(0.1, 0.8)),
			}, MethodAffine)
		},
		narrower: func(e *Engine) (any, error) {
			return runSpecs(e, []plan.QuerySpec{
				plan.Interval(measure.Covariance, interval.Between(-0.2, 0.5)),
				plan.Interval(measure.Correlation, interval.Between(0.2, 0.7)),
			}, MethodAffine)
		},
	}, cacheCase{
		name: "topk-batch/correlation",
		probe: func(e *Engine) (any, error) {
			return runSpecs(e, []plan.QuerySpec{
				plan.TopK(measure.Correlation, 8, true),
				plan.TopK(measure.DotProduct, 8, false),
			}, MethodAffine)
		},
		narrower: func(e *Engine) (any, error) {
			return runSpecs(e, []plan.QuerySpec{
				plan.TopK(measure.Correlation, 3, true),
				plan.TopK(measure.DotProduct, 3, false),
			}, MethodAffine)
		},
	})
	return cases
}

// assertCacheParity runs the battery against the cached and cold twins: the
// probe twice (miss, then exact hit) and the narrower follow-up once
// (containment candidate), each compared to the cold engine's answer.
func assertCacheParity(t *testing.T, cached, cold *Engine, tag string) {
	t.Helper()
	for _, qc := range cacheParityCases() {
		want, err := qc.probe(cold)
		if err != nil {
			t.Fatalf("%s/%s cold: %v", tag, qc.name, err)
		}
		for pass, label := range []string{"miss", "hit"} {
			got, err := qc.probe(cached)
			if err != nil {
				t.Fatalf("%s/%s cached %s: %v", tag, qc.name, label, err)
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("%s/%s: cached pass %d diverges from cold:\n got: %.200v\nwant: %.200v",
					tag, qc.name, pass, got, want)
			}
		}
		wantN, err := qc.narrower(cold)
		if err != nil {
			t.Fatalf("%s/%s cold narrower: %v", tag, qc.name, err)
		}
		gotN, err := qc.narrower(cached)
		if err != nil {
			t.Fatalf("%s/%s cached narrower: %v", tag, qc.name, err)
		}
		if fmt.Sprintf("%v", gotN) != fmt.Sprintf("%v", wantN) {
			t.Errorf("%s/%s: narrower cached query diverges from cold:\n got: %.200v\nwant: %.200v",
				tag, qc.name, gotN, wantN)
		}
	}
}

func TestCacheParityAcrossEpochs(t *testing.T) {
	const rounds, slide = 3, 6
	for _, p := range determinismLevels {
		p := p
		t.Run(fmt.Sprintf("parallelism-%d", p), func(t *testing.T) {
			cfg := Config{
				Clusters:    4,
				Seed:        5,
				Parallelism: p,
				// A positive drift bound keeps the per-epoch stale sets
				// partial, which is what makes delta repair reachable.
				Stream: StreamConfig{DriftBound: 0.5},
			}
			cachedCfg := cfg
			cachedCfg.Cache = qcache.Options{Enabled: true}

			fxCached := makeStreamFixture(t, 20, 90, rounds*slide, 7)
			fxCold := makeStreamFixture(t, 20, 90, rounds*slide, 7)
			cached, err := Build(fxCached.window, cachedCfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Build(fxCold.window, cfg)
			if err != nil {
				t.Fatal(err)
			}

			assertCacheParity(t, cached, cold, "epoch0")
			for r := 0; r < rounds; r++ {
				appendTicks(t, cached, fxCached.ticks[r*slide:(r+1)*slide])
				appendTicks(t, cold, fxCold.ticks[r*slide:(r+1)*slide])
				if _, err := cached.Advance(); err != nil {
					t.Fatal(err)
				}
				if _, err := cold.Advance(); err != nil {
					t.Fatal(err)
				}
				assertCacheParity(t, cached, cold, fmt.Sprintf("epoch%d", r+1))
			}
		})
	}
}

func TestCacheTiersActuallyServe(t *testing.T) {
	// Repair only commits when no pair outside the candidate set crossed the
	// interval boundary between epochs (the exact-count verification catches
	// every other case and falls back).  A one-tick slide keeps per-epoch
	// value drift tiny, and the covariance tail boundary at 2.0 sits in a
	// persistent gap of this fixture's value distribution, so the cached
	// row set plus the stale set covers every membership change.
	const rounds, slide = 3, 1
	cfg := Config{
		Clusters: 4,
		Seed:     5,
		Stream:   StreamConfig{DriftBound: 0.5},
		Cache:    qcache.Options{Enabled: true},
	}
	fx := makeStreamFixture(t, 20, 90, rounds*slide, 7)
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := func() {
		// Twice: first issue repairs (or misses on the cold epoch), the
		// repeat is an exact hit against the migrated entry.
		if _, err := e.Interval(measure.Covariance, interval.Between(2.0, math.Inf(1)), MethodAffine); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Interval(measure.Covariance, interval.Between(2.0, math.Inf(1)), MethodAffine); err != nil {
			t.Fatal(err)
		}
		// Contained tail served by filtering the [2, +inf) entry's rows.
		if _, err := e.Interval(measure.Covariance, interval.Between(3.0, math.Inf(1)), MethodAffine); err != nil {
			t.Fatal(err)
		}
		if _, err := e.TopK(measure.Correlation, 10, true, MethodAffine); err != nil {
			t.Fatal(err)
		}
		if _, err := e.TopK(measure.Correlation, 4, true, MethodAffine); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	for r := 0; r < rounds; r++ {
		appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		probe()
	}
	s := e.StreamStats()
	if s.CacheExactHits == 0 {
		t.Error("no exact hits recorded")
	}
	if s.CacheContainmentHits == 0 {
		t.Error("no containment hits recorded")
	}
	if s.CacheRepairHits == 0 {
		t.Errorf("no repair hits recorded (stats %+v)", s)
	}
	if s.CacheMisses == 0 {
		t.Error("no misses recorded")
	}
	if s.CacheEntries == 0 || s.CacheBytes == 0 {
		t.Errorf("cache occupancy empty: %+v", s)
	}
	if hits := s.CacheExactHits + s.CacheContainmentHits + s.CacheRepairHits; hits == 0 || s.CacheMisses == 0 {
		t.Errorf("want both hits and misses: %d hits, %d misses", hits, s.CacheMisses)
	}
}

// TestExplainCachePlanParity pins satellite contract two: on repeated queries
// Explain reports the cache tier and repaired-pair count as plan actuals, a
// cold sweep reports whether it filled or reused the epoch's base column, and
// a cached engine's plan is identical to a cold engine's modulo Duration and
// those three fields.
func TestExplainCachePlanParity(t *testing.T) {
	const rounds, slide = 3, 1 // one-tick slides: see TestCacheTiersActuallyServe
	cfg := Config{
		Clusters: 4,
		Seed:     5,
		Stream:   StreamConfig{DriftBound: 0.5},
	}
	cachedCfg := cfg
	cachedCfg.Cache = qcache.Options{Enabled: true}
	fxCached := makeStreamFixture(t, 20, 90, rounds*slide, 7)
	fxCold := makeStreamFixture(t, 20, 90, rounds*slide, 7)
	cached, err := Build(fxCached.window, cachedCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(fxCold.window, cfg)
	if err != nil {
		t.Fatal(err)
	}

	spec := plan.Interval(measure.Covariance, interval.AtLeast(2.0))
	contained := plan.Interval(measure.Covariance, interval.AtLeast(3.0))
	topk := plan.TopK(measure.Correlation, 10, true)
	topkPrefix := plan.TopK(measure.Correlation, 4, true)

	// explain runs the spec on both engines, asserts result parity and plan
	// parity modulo Duration/CacheTier/CacheRepairedPairs/BaseValues, and
	// returns the cached engine's plan for tier assertions.
	explain := func(tag string, s plan.QuerySpec) plan.Plan {
		t.Helper()
		wantRes, wantPlan, err := cold.Explain(s, MethodAffine)
		if err != nil {
			t.Fatalf("%s cold explain: %v", tag, err)
		}
		gotRes, gotPlan, err := cached.Explain(s, MethodAffine)
		if err != nil {
			t.Fatalf("%s cached explain: %v", tag, err)
		}
		if fmt.Sprintf("%v", gotRes) != fmt.Sprintf("%v", wantRes) {
			t.Fatalf("%s: cached explain result diverges from cold", tag)
		}
		norm := func(p plan.Plan) plan.Plan {
			p.Duration = 0
			p.CacheTier = ""
			p.CacheRepairedPairs = 0
			p.BaseValues = ""
			return p
		}
		if fmt.Sprintf("%+v", norm(gotPlan)) != fmt.Sprintf("%+v", norm(wantPlan)) {
			t.Fatalf("%s: cached plan diverges from cold modulo cache fields:\n got: %+v\nwant: %+v",
				tag, norm(gotPlan), norm(wantPlan))
		}
		if wantPlan.CacheTier != "" || wantPlan.CacheRepairedPairs != 0 {
			t.Fatalf("%s: cold engine reported cache actuals: %+v", tag, wantPlan)
		}
		if wantPlan.BaseValues == "" {
			t.Fatalf("%s: the cold engine's affine sweep reported no base values: %+v", tag, wantPlan)
		}
		if (gotPlan.CacheTier != "") != (gotPlan.BaseValues == "") {
			t.Fatalf("%s: want base values reported exactly when no cache tier served: %+v", tag, gotPlan)
		}
		return gotPlan
	}

	if p := explain("miss", spec); p.CacheTier != "" || p.BaseValues != "filled" {
		t.Fatalf("first issue reported tier %q and base values %q, want none and filled", p.CacheTier, p.BaseValues)
	}
	if p := explain("exact", spec); p.CacheTier != "exact" {
		t.Fatalf("repeat issue reported tier %q, want exact", p.CacheTier)
	}
	if p := explain("contained", contained); p.CacheTier != "contained" {
		t.Fatalf("narrower issue reported tier %q, want contained", p.CacheTier)
	}
	// Correlation derives from covariance: its first sweep rides the column
	// the covariance miss filled.
	if p := explain("topk-miss", topk); p.CacheTier != "" || p.BaseValues != "reused" {
		t.Fatalf("first top-k reported tier %q and base values %q, want none and reused", p.CacheTier, p.BaseValues)
	}
	if p := explain("topk-prefix", topkPrefix); p.CacheTier != "contained" {
		t.Fatalf("prefix top-k reported tier %q, want contained", p.CacheTier)
	}

	sawRepair := false
	for r := 0; r < rounds; r++ {
		appendTicks(t, cached, fxCached.ticks[r*slide:(r+1)*slide])
		appendTicks(t, cold, fxCold.ticks[r*slide:(r+1)*slide])
		if _, err := cached.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Advance(); err != nil {
			t.Fatal(err)
		}
		p := explain(fmt.Sprintf("epoch%d", r+1), spec)
		if p.CacheTier == "repaired" {
			sawRepair = true
			if p.CacheRepairedPairs == 0 {
				t.Fatalf("epoch%d: repaired tier with zero repaired pairs", r+1)
			}
		}
		if p := explain(fmt.Sprintf("epoch%d-exact", r+1), spec); p.CacheTier != "exact" {
			t.Fatalf("epoch%d repeat reported tier %q, want exact", r+1, p.CacheTier)
		}
	}
	if !sawRepair {
		t.Fatal("no Advance round reported the repaired tier")
	}
}
