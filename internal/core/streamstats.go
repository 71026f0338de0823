package core

import (
	"time"

	"affinity/internal/scape"
)

// StreamStats accumulates incremental-maintenance observability over the
// engine's lifetime: what the per-epoch SCAPE index updates did, how the
// scratch pools behaved, and the phase timings of the most recent Advance.
// All counters are cumulative unless prefixed Last.
type StreamStats struct {
	// Advances is the number of non-empty epoch transitions performed.
	Advances int
	// IndexUpdates counts epochs whose index was delta-updated incrementally;
	// IndexRebuilds counts epochs that rebuilt the index from scratch (a nil
	// stale set: every relationship was refit).
	IndexUpdates  int
	IndexRebuilds int
	// EntriesDeleted / EntriesInserted total the stale pairs that left and
	// entered the sequence stores incremental updates re-derived.
	EntriesDeleted  int
	EntriesInserted int
	// StoresShared / StoresCloned / StoresRebuilt total the per-pivot
	// sequence-store outcomes across incremental updates: carried over
	// wholesale, re-derived because a stale pair was assigned to the pivot, or
	// built for a pivot the previous index had no node for.
	StoresShared  int
	StoresCloned  int
	StoresRebuilt int
	// ScratchGets/ScratchHits track the SCAPE per-pivot scratch pool.
	ScratchGets int
	ScratchHits int
	// LastStaleFraction is the stale fraction of the most recent index
	// maintenance (1 on an epoch that refit everything).
	LastStaleFraction float64
	// Phase timings of the most recent Advance: the slid window's per-series
	// moments (its reduction, or a memo read where another consumer of the
	// window reduced it first), drift scoring + refit, index maintenance,
	// planner refresh.
	LastSlidePhase   time.Duration
	LastRefitPhase   time.Duration
	LastIndexPhase   time.Duration
	LastPlannerPhase time.Duration
	// Result-cache counters (zero when the cache is disabled).  Hits split by
	// reuse tier: exact key match, semantic containment (narrower interval /
	// smaller k served from a wider entry), and delta repair across Advances.
	// CacheRepairedPairs totals the candidate pairs re-evaluated by repairs;
	// CacheRepairFallbacks counts repairs abandoned by the exact-count check.
	CacheExactHits       int
	CacheContainmentHits int
	CacheRepairHits      int
	CacheMisses          int
	CacheRepairedPairs   int
	CacheRepairFallbacks int
	CacheEvictions       int
	CacheExpired         int
	// CacheEntries and CacheBytes are the cache's current occupancy.
	CacheEntries int
	CacheBytes   int64
	// Sketch-prescreen counters (zero when the sketch tier is disabled).
	// SketchRebuilt/SketchSlid split the per-series maintenance outcomes:
	// full-FFT rebuilds (the initial build, the statistics-refresh epochs)
	// versus sliding-DFT updates sharing the previous epoch's kept-index
	// structure.  SketchSweeps counts prescreened sweep executions, and the
	// DefiniteIn/DefiniteOut/Ambiguous triple their interval classifications —
	// the ambiguous pairs went on to the pair-moment column.
	// SketchTopKSkippedPairs counts the pairs a naive top-k's sketch bounds
	// ruled out against its heap's running threshold; the rest count as
	// ambiguous.
	SketchRebuilt          int64
	SketchSlid             int64
	SketchSweeps           int64
	SketchDefiniteIn       int64
	SketchDefiniteOut      int64
	SketchAmbiguous        int64
	SketchTopKSkippedPairs int64
	// Base-column counters (zero while no affine sweep has run).
	// SweepBaseFills counts evaluations of an affine base T-measure over the
	// whole pair universe — at most one per base and epoch, on every engine —
	// and SweepBaseReuses the sweep groups that took their base values from a
	// column an earlier sweep of the epoch had already filled.
	SweepBaseFills  int64
	SweepBaseReuses int64
	// Pair-moment column counters (zero while no naive sweep of a boundable
	// measure has run).  MomentFills counts materialisations of the column —
	// one DotBlock pass over the pair universe, by the first such sweep and
	// again after every statistics refresh epoch — MomentSweeps the sweeps
	// classified against it, and MomentRefinedPairs the pairs those sweeps
	// still sent to the exact kernels: the ambiguous sliver and, on a
	// cache-enabled engine, the rows they kept.
	MomentFills        int64
	MomentSweeps       int64
	MomentRefinedPairs int64
}

// PoolHitRate returns the hit rate of the SCAPE scratch pool in [0, 1] (1
// when it was never consulted).
func (s StreamStats) PoolHitRate() float64 {
	if s.ScratchGets == 0 {
		return 1
	}
	return float64(s.ScratchHits) / float64(s.ScratchGets)
}

// addUpdate folds one index-maintenance outcome into the counters; rebuilt
// marks the epochs whose stale set was nil, which Update builds cold.
func (s *StreamStats) addUpdate(us scape.UpdateStats, rebuilt bool) {
	if rebuilt {
		s.IndexRebuilds++
	} else {
		s.IndexUpdates++
	}
	s.EntriesDeleted += us.EntriesDeleted
	s.EntriesInserted += us.EntriesInserted
	s.StoresShared += us.StoresShared
	s.StoresCloned += us.StoresCloned
	s.StoresRebuilt += us.StoresRebuilt
	s.ScratchGets += us.ScratchGets
	s.ScratchHits += us.ScratchHits
	s.LastStaleFraction = us.StaleFraction
}

// StreamStats returns a snapshot of the engine's incremental-maintenance
// counters, with the result cache's counters merged in.
func (e *Engine) StreamStats() StreamStats {
	e.streamMu.Lock()
	s := e.stream
	e.streamMu.Unlock()
	cs := e.current().cache.Stats()
	s.CacheExactHits = cs.ExactHits
	s.CacheContainmentHits = cs.ContainmentHits
	s.CacheRepairHits = cs.RepairHits
	s.CacheMisses = cs.Misses
	s.CacheRepairedPairs = cs.RepairedPairs
	s.CacheRepairFallbacks = cs.RepairFallbacks
	s.CacheEvictions = cs.Evictions
	s.CacheExpired = cs.Expired
	s.CacheEntries = cs.Entries
	s.CacheBytes = cs.Bytes
	s.SweepBaseFills = e.sweep.fills.Load()
	s.SweepBaseReuses = e.sweep.reuses.Load()
	s.MomentFills = e.sweep.momentFills.Load()
	s.MomentSweeps = e.sweep.momentSweeps.Load()
	s.MomentRefinedPairs = e.sweep.momentRefined.Load()
	if sk := e.current().sketch; sk != nil {
		ss := sk.Counters().Snapshot()
		s.SketchRebuilt = ss.Rebuilt
		s.SketchSlid = ss.Slid
		s.SketchSweeps = ss.Sweeps
		s.SketchDefiniteIn = ss.DefiniteIn
		s.SketchDefiniteOut = ss.DefiniteOut
		s.SketchAmbiguous = ss.Ambiguous
		s.SketchTopKSkippedPairs = ss.TopKSkippedPairs
	}
	return s
}

// batchScratch is the engine's tick-transpose buffer: n column slices cut
// from one backing array, regrown only when an epoch needs more room.
type batchScratch struct {
	cols [][]float64
	buf  []float64
}

// columns returns n slices of length slide backed by the scratch buffer.
func (b *batchScratch) columns(n, slide int) [][]float64 {
	if cap(b.buf) < n*slide {
		b.buf = make([]float64, n*slide)
	}
	buf := b.buf[:n*slide]
	if cap(b.cols) < n {
		b.cols = make([][]float64, n)
	}
	cols := b.cols[:n]
	for v := range cols {
		cols[v] = buf[v*slide : (v+1)*slide]
	}
	return cols
}

// driftFlags returns the engine's drift-scoring flag slice, zeroed, of
// length n.  Callers hold streamMu.
func (e *Engine) driftFlags(n int) []bool {
	if cap(e.flags) < n {
		e.flags = make([]bool, n)
	}
	e.flags = e.flags[:n]
	clear(e.flags)
	return e.flags
}
