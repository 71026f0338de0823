package core

import (
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/scape"
)

// This file pins the DESIGN.md invariant behind incremental SCAPE
// maintenance: after a cold build and any sequence of Advances, the
// delta-updated epoch index answers every query byte-identically to a
// from-scratch scape.Build over the same window and relationship set — at
// any parallelism, with drift-bounded partial refits at small and large stale
// fractions, and through refit-everything epochs.

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
	fresh, err := scape.Build(st.data, st.rel, e.cfg.indexOptions())
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
	for _, m := range []measure.Measure{measure.Mean, measure.Median} {
		got, err1 := st.index.SeriesInterval(m, interval.AtLeast(-0.2))
		want, err2 := fresh.SeriesInterval(m, interval.AtLeast(-0.2))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("SeriesInterval(%v) error mismatch: %v vs %v", m, err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("SeriesInterval(%v): %d vs %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SeriesInterval(%v)[%d] = %v, want %v", m, i, got[i], want[i])
			}
		}
	}
}

// TestIncrementalAdvanceMatchesRebuild drives the streaming engine through
// several epochs at every parallelism level under three maintenance regimes,
// selected by the drift bound: a tight bound that marks most pairs stale every
// epoch (most stores re-derived), a loose one that marks few (most stores
// shared), and exact mode, whose nil stale sets rebuild the index.  Each
// maintained index must match a from-scratch build of its engine's final
// window and relationships — across every measure, interval and top-k query.
func TestIncrementalAdvanceMatchesRebuild(t *testing.T) {
	const rounds, slide = 3, 6
	for _, p := range determinismLevels {
		base := Config{Clusters: 4, Seed: 5, Parallelism: p,
			Stream: StreamConfig{DriftBound: 0.01}}

		inc := advanceStreamEngine(t, base, rounds, slide)

		exact := base
		exact.Stream.DriftBound = 0
		reb := advanceStreamEngine(t, exact, rounds, slide)

		loose := base
		loose.Stream.DriftBound = 0.5
		del := advanceStreamEngine(t, loose, rounds, slide)

		// Each maintained index must match a from-scratch build bit for bit,
		// including result order.
		for _, e := range []*Engine{inc, reb, del} {
			assertIndexMatchesRebuild(t, e)
		}

		// Accounting: a bounded drift updates on every advance, exact mode
		// rebuilds on every advance.
		for _, e := range []*Engine{inc, reb, del} {
			ss := e.StreamStats()
			if ss.Advances != rounds {
				t.Fatalf("parallelism %d: %d advances, want %d", p, ss.Advances, rounds)
			}
			updates, rebuilds := rounds, 0
			if e == reb {
				updates, rebuilds = 0, rounds
			}
			if ss.IndexUpdates != updates || ss.IndexRebuilds != rebuilds {
				t.Fatalf("parallelism %d, drift bound %v: %d updates + %d rebuilds over %d advances",
					p, e.cfg.Stream.DriftBound, ss.IndexUpdates, ss.IndexRebuilds, ss.Advances)
			}
		}
		// The two bounds must sit on either side of the share-or-re-derive
		// decision: the tight one re-derives most stores, the loose one shares
		// most, and neither regime leaves the other's route untested.
		tight, few := inc.StreamStats(), del.StreamStats()
		if tight.StoresCloned <= tight.StoresShared || tight.EntriesInserted == 0 {
			t.Fatalf("parallelism %d: drift bound 0.01 shared %d stores and re-derived %d (%d entries inserted)",
				p, tight.StoresShared, tight.StoresCloned, tight.EntriesInserted)
		}
		if few.StoresShared <= few.StoresCloned || few.StoresCloned == 0 {
			t.Fatalf("parallelism %d: drift bound 0.5 shared %d stores and re-derived %d",
				p, few.StoresShared, few.StoresCloned)
		}
		if ss := reb.StreamStats(); ss.StoresShared+ss.StoresCloned+ss.EntriesInserted != 0 {
			t.Fatalf("parallelism %d: exact mode still shared or re-derived stores: %+v", p, ss)
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

// TestStreamStatsObservability checks the scratch-pool and phase counters
// move.
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
}
