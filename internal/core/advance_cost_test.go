package core

import (
	"testing"

	"affinity/internal/symex"
)

// advanceAllocs measures the allocations of one Append + Advance on an
// n-series engine whose drift bound no relationship ever exceeds: the stale
// set is empty, so the epoch does only its fixed work.
func advanceAllocs(t *testing.T, n int) (allocs float64, relationships, pivots int) {
	t.Helper()
	fx := makeStreamFixture(t, n, 48, 64, 5)
	e, err := Build(fx.window, Config{Clusters: 4, Seed: 2, Stream: StreamConfig{DriftBound: 1e12, StatsRefreshEvery: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs = testing.AllocsPerRun(20, func() {
		if err := e.Append(fx.ticks[next%len(fx.ticks)]); err != nil {
			t.Fatal(err)
		}
		next++
		info, err := e.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if info.RefitRelationships != 0 || info.FullRefit {
			t.Fatalf("n=%d: the epoch refit %d relationships (full=%v), want an empty stale set", n, info.RefitRelationships, info.FullRefit)
		}
	})
	rel := e.Relationships()
	return allocs, rel.Len(), len(rel.Layout().Pivots())
}

// TestAdvanceAllocationsFollowPivots: doubling n at fixed K quadruples the
// relationships and doubles the pivots.  An Advance that refits nothing
// allocates per pivot (summaries, index nodes, ξ-containers) and never per
// relationship, so its allocation count may double — not quadruple.
func TestAdvanceAllocationsFollowPivots(t *testing.T) {
	small, smallRels, smallPivots := advanceAllocs(t, 32)
	large, largeRels, largePivots := advanceAllocs(t, 64)
	if largeRels < 4*smallRels || largePivots > 5*smallPivots/2 {
		t.Fatalf("fixture does not separate the two growth rates: relationships %d → %d, pivots %d → %d",
			smallRels, largeRels, smallPivots, largePivots)
	}
	if large > 2.5*small {
		t.Fatalf("an empty-stale-set Advance allocates %.0f times at n=64 against %.0f at n=32 (×%.2f): growth follows the %d → %d relationships, not the %d → %d pivots",
			large, small, large/small, smallRels, largeRels, smallPivots, largePivots)
	}
}

// TestAdvanceInfoCounters replays every epoch of a drift-bounded stream
// against the counts a map-based bookkeeping of the same stale sets gives:
// refit and reused counters, the kernel-pivot counter against the result's
// own, and the relationship counters; a pair that is not stale keeps its
// relationship by pointer.
func TestAdvanceInfoCounters(t *testing.T) {
	fx := makeStreamFixture(t, 16, 60, 48, 11)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 4, Stream: StreamConfig{DriftBound: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	sawReuse := false
	for epoch := 1; epoch <= 12; epoch++ {
		for _, tick := range fx.ticks[(epoch-1)*4 : epoch*4] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		prev := e.Relationships()
		info, err := e.Advance()
		if err != nil {
			t.Fatal(err)
		}
		rel := e.Relationships()
		reused, stalePivots := 0, map[symex.Pivot]bool{}
		for slot, a := range rel.AssignmentList() {
			if info.Stale[a.Pair] {
				stalePivots[a.Pivot] = true
				continue
			}
			reused++
			if rel.At(slot) != prev.At(slot) {
				t.Fatalf("epoch %d: pair %v changed without being stale", epoch, a.Pair)
			}
		}
		sawReuse = sawReuse || reused > 0
		// RefitPivots counts the stale pivots the kernel fitted — those the
		// moment form's guard turned away, a subset of the stale pivots.
		if info.ReusedRelationships != reused || info.RefitRelationships != rel.Len()-reused ||
			info.RefitPivots != rel.Stats.PseudoInverseComputations || info.RefitPivots > len(stalePivots) {
			t.Fatalf("epoch %d: refit/reused/kernel pivots %d/%d/%d (%d in Stats), bookkeeping gives %d/%d and %d stale pivots", epoch,
				info.RefitRelationships, info.ReusedRelationships, info.RefitPivots, rel.Stats.PseudoInverseComputations,
				rel.Len()-reused, reused, len(stalePivots))
		}
		if e.Info().NumRelationships != rel.Len() || rel.Stats.NumRelationships != len(rel.AssignmentList()) {
			t.Fatalf("epoch %d: relationship counters %d/%d, %d assigned", epoch, e.Info().NumRelationships, rel.Stats.NumRelationships, len(rel.AssignmentList()))
		}
	}
	if !sawReuse {
		t.Fatal("the drift bound refit every relationship on every epoch: the reused counter is not exercised")
	}
}
