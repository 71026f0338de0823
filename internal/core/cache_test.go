package core

import (
	"math"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
)

// TestCacheTiersActuallyServe: across a cold build and three streaming
// epochs with a positive drift bound, repeated and narrower queries are served
// by every cache tier, and Explain reports the tier that served each, with
// the repaired pairs of a repair, and where a sweep's base values came from
// exactly when no tier served.  That cached answers and plans equal a
// cache-off engine's is the operation lattice's (lattice_test.go).
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
	repaired := 0
	explain := func(spec plan.QuerySpec, tier string) {
		t.Helper()
		_, p, err := e.Explain(spec, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		if p.CacheTier == "repaired" && p.CacheRepairedPairs > 0 {
			repaired++
		}
		if tier != "" && p.CacheTier != tier {
			t.Fatalf("epoch %d %v: served by tier %q, want %q", e.Epoch(), spec, p.CacheTier, tier)
		}
		if (p.CacheTier != "") != (p.BaseValues == "") {
			t.Fatalf("epoch %d %v: tier %q, base values %q; want base values reported exactly when no tier served", e.Epoch(), spec, p.CacheTier, p.BaseValues)
		}
	}
	tail := plan.Interval(measure.Covariance, interval.Between(2.0, math.Inf(1)))
	probe := func() {
		// Twice: first issue repairs (or misses on the cold epoch), the
		// repeat is an exact hit against the migrated entry.
		explain(tail, "")
		explain(tail, "exact")
		// Contained tail served by filtering the [2, +inf) entry's rows.
		explain(plan.Interval(measure.Covariance, interval.Between(3.0, math.Inf(1))), "contained")
		explain(plan.TopK(measure.Correlation, 10, true), "")
		explain(plan.TopK(measure.Correlation, 4, true), "contained")
	}
	probe()
	for r := 0; r < rounds; r++ {
		appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		probe()
	}
	if repaired == 0 {
		t.Error("no Explain reported a repair")
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
