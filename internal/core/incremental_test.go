package core

import (
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/scape"
)

// This file pins the accounting of incremental SCAPE maintenance and its
// exact-mode fallback.  That a delta-updated epoch index answers every query
// byte-identically to a from-scratch build over the same window and
// relationship set is the operation lattice's (lattice_test.go), whose
// snapshot-restored twins build their index cold.

// advanceStreamEngine builds an engine and advances it through `rounds`
// epochs of `slide` ticks from a deterministic fixture.
func advanceStreamEngine(t *testing.T, cfg Config, rounds, slide int) *Engine {
	t.Helper()
	const n, window = 20, 90
	fx := makeStreamFixture(t, n, window, rounds*slide, 7)
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatalf("advance %d: %v", r, err)
		}
	}
	return e
}

// assertIndexMatchesRebuild rebuilds the engine's current epoch index from
// scratch with scape.Build and requires the live (incrementally maintained)
// index to answer the whole index query surface identically — same values,
// same order, same tie-breaks.
func assertIndexMatchesRebuild(t *testing.T, e *Engine) {
	t.Helper()
	st := e.escapedState()
	if st.index == nil {
		t.Fatal("engine has no index")
	}
	fresh, err := scape.Build(st.data, st.rel, scape.Options{Parallelism: e.cfg.Parallelism})
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	measures := []measure.Measure{
		measure.Covariance, measure.DotProduct, measure.Correlation, measure.Cosine,
	}
	intervals := []interval.Interval{
		interval.AtLeast(0.1), interval.AtMost(-0.05), interval.Between(-0.5, 0.5),
	}
	for _, m := range measures {
		for _, iv := range intervals {
			got, err1 := st.index.PairInterval(m, iv)
			want, err2 := fresh.PairInterval(m, iv)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("PairInterval(%v, %v) error mismatch: %v vs %v", m, iv, err1, err2)
			}
			if len(got) != len(want) {
				t.Fatalf("PairInterval(%v, %v): %d pairs vs %d", m, iv, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("PairInterval(%v, %v)[%d] = %v, want %v", m, iv, i, got[i], want[i])
				}
			}
		}
		gp, gv, _, err1 := st.index.PairTopK(m, 9, true)
		wp, wv, _, err2 := fresh.PairTopK(m, 9, true)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("PairTopK(%v) error mismatch: %v vs %v", m, err1, err2)
		}
		if len(gp) != len(wp) {
			t.Fatalf("PairTopK(%v): %d vs %d results", m, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i] != wp[i] || gv[i] != wv[i] {
				t.Fatalf("PairTopK(%v)[%d] = %v/%v, want %v/%v", m, i, gp[i], gv[i], wp[i], wv[i])
			}
		}
	}
}

// TestIncrementalExactModeFallsBack pins that DriftBound == 0 (exact mode,
// every relationship refit each epoch) always produces a nil stale set and
// therefore full rebuilds — and still matches a from-scratch build.
func TestIncrementalExactModeFallsBack(t *testing.T) {
	cfg := Config{Clusters: 4, Seed: 5, Parallelism: 2}
	e := advanceStreamEngine(t, cfg, 2, 6)
	ss := e.StreamStats()
	if ss.IndexUpdates != 0 || ss.IndexRebuilds != ss.Advances {
		t.Fatalf("exact mode: %d updates, %d rebuilds over %d advances",
			ss.IndexUpdates, ss.IndexRebuilds, ss.Advances)
	}
	if ss.LastStaleFraction != 1 {
		t.Fatalf("exact mode: stale fraction %v, want 1", ss.LastStaleFraction)
	}
	assertIndexMatchesRebuild(t, e)
}

// TestStreamStatsObservability checks the scratch-pool, phase and index
// maintenance counters move: every bounded-drift Advance updates the index,
// and the two drift bounds sit on either side of the share-or-re-derive
// decision — 0.01 re-derives most sequence stores, 0.5 shares most.
func TestStreamStatsObservability(t *testing.T) {
	cfg := Config{Clusters: 4, Seed: 5, Parallelism: 2,
		Stream: StreamConfig{DriftBound: 0.01}}
	e := advanceStreamEngine(t, cfg, 3, 6)
	ss := e.StreamStats()
	if ss.ScratchGets == 0 {
		t.Fatal("scape scratch pool counters never moved")
	}
	if ss.ScratchHits == 0 {
		t.Fatal("scape scratch was never reused across advances")
	}
	if hr := ss.PoolHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("pool hit rate %v out of range", hr)
	}
	if ss.LastSlidePhase < 0 || ss.LastRefitPhase <= 0 || ss.LastIndexPhase <= 0 {
		t.Fatalf("phase timings not recorded: slide=%v refit=%v index=%v",
			ss.LastSlidePhase, ss.LastRefitPhase, ss.LastIndexPhase)
	}
	if ss.IndexUpdates != 3 || ss.IndexRebuilds != 0 || ss.StoresCloned <= ss.StoresShared || ss.EntriesInserted == 0 {
		t.Fatalf("drift bound 0.01: %d updates, %d rebuilds; shared %d stores and re-derived %d (%d entries inserted)",
			ss.IndexUpdates, ss.IndexRebuilds, ss.StoresShared, ss.StoresCloned, ss.EntriesInserted)
	}
	cfg.Stream.DriftBound = 0.5
	if few := advanceStreamEngine(t, cfg, 3, 6).StreamStats(); few.StoresShared <= few.StoresCloned || few.StoresCloned == 0 {
		t.Fatalf("drift bound 0.5: shared %d stores and re-derived %d", few.StoresShared, few.StoresCloned)
	}
}
