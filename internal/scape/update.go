package scape

import (
	"fmt"

	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// An epoch's index is derived from the epoch's relationship set, so an
// incremental update is a cold Build minus what it may share with the previous
// epoch's index: the sequence store of every pivot no stale pair is assigned
// to.  Every update, a cold one included, repairs the new ξ-containers from
// the previous epoch's orders instead of sorting them cold.  (What is frozen
// with the clustering lives on the clustering, not on an index.)  There is one
// maintenance path; how much it shares is decided per pivot, not per epoch.

// UpdateOptions configures an incremental index update.
type UpdateOptions struct {
	// Parallelism fans the per-pivot work out over worker goroutines, with the
	// same deterministic gather ordering as Build.  Zero or one runs
	// sequentially.
	Parallelism int
	// Recycle, when non-nil, is a retired index that no reader can reach any
	// more and that is not the index being updated: the new index builds into
	// its node, container and offset slabs and its value columns instead of
	// allocating them, and a cold update's sequence stores into its store slab
	// when no later index shares a store of it (Update).  The recycled index
	// must not be used afterwards.
	Recycle *Index
}

// UpdateStats reports what an Update call did, for observability and the
// streaming engine's StreamStats.
type UpdateStats struct {
	// StaleFraction is the share of the new epoch's relationships the stale
	// set marks: pairs mapped to true that the layout has a slot for, over
	// |relationships| (1 when the stale set was nil, i.e. everything had to be
	// refit).
	StaleFraction float64
	// StoresShared counts pivot sequence stores carried over wholesale (no
	// stale pairs touched the pivot — zero work, full structural sharing).
	StoresShared int
	// StoresCloned counts pivot sequence stores re-derived from the
	// relationship set because a stale pair was assigned to the pivot.
	StoresCloned int
	// StoresRebuilt counts pivots built from scratch (pivots absent from the
	// previous index, e.g. revived by refit after full pruning).
	StoresRebuilt int
	// EntriesDeleted / EntriesInserted count, over the re-derived stores, the
	// stale pairs that left the previous epoch's store and the stale pairs the
	// new one holds.
	EntriesDeleted  int
	EntriesInserted int
	// ScratchGets/ScratchHits mirror the pooled per-pivot scratch usage of
	// the epoch (hits came from the pool, misses allocated).
	ScratchGets int
	ScratchHits int
}

// Update produces the index for a new epoch from the previous epoch's index,
// the re-fitted relationship set, and the set of pairs symex.Refit actually
// re-fitted.  A pivot's sequence store is shared with the previous index when
// no stale pair is assigned to it and re-derived from rel otherwise;
// everything derived from the slid window (α vectors, scalar projections —
// and, on demand, value and location columns) is recomputed through
// the exact code path Build uses, and a container re-sorted from the previous
// epoch's order is the array a cold sort yields, so the result answers every
// query byte-identically to Build(d, rel, ...) on the same window, whether
// or not it was built into a recycled index (opts.Recycle).  The previous
// index is never mutated and stays fully queryable.
//
// A nil stale set means every relationship was refit (mirroring
// symex.Refit): no store can be shared, and the index is built cold, every
// sequence store carved out of one store slab — the recycled index's when it
// is not pinned, a new one otherwise — and every container repaired from the
// previous index's order for its pivot.  An update that shares stores
// allocates each store it re-derives, since the next epoch may share it in
// turn.
func (prev *Index) Update(d *timeseries.DataMatrix, rel *symex.Result,
	stale map[timeseries.Pair]bool, opts UpdateOptions) (*Index, UpdateStats, error) {

	var us UpdateStats
	if prev == nil {
		return nil, us, fmt.Errorf("scape: update needs a previous index")
	}
	if err := d.Validate(); err != nil {
		return nil, us, err
	}
	if rel == nil || rel.Len() == 0 && len(prev.opts.LocationMeasures) > 0 {
		return nil, us, fmt.Errorf("scape: no affine relationships to index")
	}
	if d.NumSeries() != prev.numSeries {
		return nil, us, fmt.Errorf("scape: update window has %d series, index has %d",
			d.NumSeries(), prev.numSeries)
	}
	if opts.Recycle == prev {
		return nil, us, fmt.Errorf("scape: an update cannot recycle the index it updates")
	}

	if stale == nil {
		us.StaleFraction = 1
		donor := opts.Recycle
		if donor == nil {
			donor = &noDonor // nothing to recycle, but the stores still go into a slab
		}
		idx, err := build(d, rel, prev.opts, opts.Parallelism, prev, donor)
		if err != nil {
			return nil, us, err
		}
		us.ScratchGets = idx.stats.ScratchGets
		us.ScratchHits = idx.stats.ScratchHits
		return idx, us, nil
	}

	idx := &Index{
		opts:         prev.opts,
		tMeasures:    prev.tMeasures,
		dMeasures:    prev.dMeasures,
		lMeasures:    prev.lMeasures,
		pairMeasures: prev.pairMeasures,
		derivedSet:   prev.derivedSet,
		locationSet:  prev.locationSet,
		numSamples:   d.NumSamples(),
		numSeries:    prev.numSeries,
		location:     make([]locationColumn, len(prev.lMeasures)),
		data:         d,
		rel:          rel,
	}

	// Count the stale pairs per (fixed) pivot assignment, found through the
	// layout's slot index — work in the stale set, not the relationship set.
	layout := rel.Layout()
	perPivot := make([]int32, len(layout.Pivots())) // stale pairs per pivot
	marked := 0
	for p, isStale := range stale {
		if slot, ok := layout.Slot(p); ok && isStale {
			perPivot[layout.PivotOf(slot)]++
			marked++
		}
	}
	staleFraction := float64(marked) / float64(rel.Len())

	us, err := idx.buildNodes(d, rel, prev, perPivot, opts.Parallelism, opts.Recycle)
	if err != nil {
		return nil, us, err
	}
	us.StaleFraction = staleFraction
	idx.finishStats(rel)
	us.ScratchGets = idx.stats.ScratchGets
	us.ScratchHits = idx.stats.ScratchHits
	return idx, us, nil
}
