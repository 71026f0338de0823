package scape

import (
	"cmp"
	"fmt"
	"slices"

	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// DefaultCrossover is the stale fraction above which Update falls back to a
// full Build.  Calibrated like the planner's cost model: deleting and
// re-inserting one stale entry costs two O(log k) tree descents with
// copy-on-write path copies (~2 node copies each), while a full rebuild pays
// a flat O(1) append per entry into bulk-loaded leaves.  The measured
// crossover on the stock dataset sits between 1/3 and 1/2 (see
// EXPERIMENTS.md); 0.35 keeps the incremental path strictly on the winning
// side.
const DefaultCrossover = 0.35

// UpdateOptions configures an incremental index update.
type UpdateOptions struct {
	// Parallelism fans the per-pivot delta application and rebuild work out
	// over worker goroutines, with the same deterministic gather ordering as
	// Build.  Zero or one runs sequentially.
	Parallelism int
	// Crossover is the stale fraction (stale pairs / total relationships)
	// above which Update abandons the delta path and performs a full Build.
	// Zero selects DefaultCrossover.
	Crossover float64
}

// UpdateStats reports what an Update call did, for observability and the
// streaming engine's StreamStats.
type UpdateStats struct {
	// StaleFraction is |stale| / |relationships| for the new epoch (1 when
	// the stale set was nil, i.e. everything had to be refit).
	StaleFraction float64
	// Crossover is the threshold the decision was made against.
	Crossover float64
	// FellBack reports that the stale fraction exceeded the crossover and the
	// index was rebuilt from scratch instead of delta-updated.
	FellBack bool
	// StoresShared counts pivot sequence stores carried over wholesale (no
	// stale pairs touched the pivot — zero work, full structural sharing).
	StoresShared int
	// StoresCloned counts pivot sequence stores delta-updated through a
	// copy-on-write clone.
	StoresCloned int
	// StoresRebuilt counts pivots built from scratch (pivots absent from the
	// previous index, e.g. revived by refit after full pruning).
	StoresRebuilt int
	// EntriesDeleted / EntriesInserted count the sequence-store mutations the
	// delta application performed.
	EntriesDeleted  int
	EntriesInserted int
	// ScratchGets/ScratchHits mirror the pooled per-pivot scratch usage of
	// the epoch (hits came from the pool, misses allocated).
	ScratchGets int
	ScratchHits int
}

// Update produces the index for a new epoch from the previous epoch's index,
// the re-fitted relationship set, and the set of pairs symex.Refit actually
// re-fitted.  Pivot sequence stores are shared or cloned copy-on-write with
// only the stale pairs' entries deleted/re-inserted; everything derived from
// the slid window (α vectors, scalar projections, location estimates — and,
// on demand, parameter bounds) is recomputed through the exact code path Build
// uses, and a container re-sorted from the previous epoch's order is the array
// a cold sort yields, so the result answers every query byte-identically to
// Build(d, rel, ...) on the same window.  The previous index is never mutated
// and stays fully queryable.
//
// A nil stale set means every relationship was refit (mirroring
// symex.Refit); together with stale fractions above the crossover threshold
// it falls back to a full Build.
func (prev *Index) Update(d *timeseries.DataMatrix, rel *symex.Result,
	stale map[timeseries.Pair]bool, opts UpdateOptions) (*Index, UpdateStats, error) {

	var us UpdateStats
	us.Crossover = opts.Crossover
	if us.Crossover <= 0 {
		us.Crossover = DefaultCrossover
	}
	if prev == nil {
		return nil, us, fmt.Errorf("scape: update needs a previous index")
	}
	if err := d.Validate(); err != nil {
		return nil, us, err
	}
	if rel == nil || rel.Len() == 0 {
		return nil, us, fmt.Errorf("scape: no affine relationships to index")
	}
	if d.NumSeries() != prev.numSeries {
		return nil, us, fmt.Errorf("scape: update window has %d series, index has %d",
			d.NumSeries(), prev.numSeries)
	}

	if stale == nil {
		us.StaleFraction = 1
	} else {
		us.StaleFraction = float64(len(stale)) / float64(rel.Len())
	}
	if us.StaleFraction > us.Crossover {
		us.FellBack = true
		bopts := prev.opts
		bopts.BuildParallelism = opts.Parallelism
		idx, err := build(d, rel, bopts, prev)
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
	}
	idx.opts.BuildParallelism = opts.Parallelism

	// Group the stale pairs by their (fixed) pivot assignment, found through
	// the layout's slot index — work in the stale set, not the relationship
	// set; each pivot's delta is applied in canonical pair order for
	// deterministic work.
	layout := rel.Layout()
	staleByPivot := make(map[int][]timeseries.Pair)
	for p, isStale := range stale {
		if slot, ok := layout.Slot(p); ok && isStale {
			pi := layout.PivotOf(slot)
			staleByPivot[pi] = append(staleByPivot[pi], p)
		}
	}
	for _, list := range staleByPivot {
		slices.SortFunc(list, func(a, b timeseries.Pair) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
	}

	work, err := idx.buildNodes(d, rel, prev, staleByPivot, opts.Parallelism)
	if err != nil {
		return nil, us, err
	}
	for _, w := range work {
		us.EntriesDeleted += w.deleted
		us.EntriesInserted += w.inserted
		switch {
		case w.shared:
			us.StoresShared++
		case w.cloned:
			us.StoresCloned++
		case w.rebuilt:
			us.StoresRebuilt++
		}
	}

	// Location estimates change with the window every epoch; they are rebuilt
	// exactly as Build does, on the previous epoch's center locations.
	if err := idx.buildLocationTrees(d, rel, prev); err != nil {
		return nil, us, err
	}
	idx.finishStats(rel)
	us.ScratchGets = idx.stats.ScratchGets
	us.ScratchHits = idx.stats.ScratchHits
	return idx, us, nil
}

// carryStore gives a node of the new epoch the sequence store of this (the
// previous) index's node for the same pivot: shared wholesale, canonical snapshot
// included, when no stale pair is assigned to the pivot — it then returns that
// node's measure state, whose container orders the new epoch repairs — and
// otherwise cloned copy-on-write with only the stale pairs' entries deleted
// and re-inserted.  A pivot the index has no node for (revived by refit after
// full pruning) is left without a store.  hint is the node's position in the
// new index.
func (prev *Index) carryStore(node *pivotNode, hint int, rel *symex.Result, pi int,
	changes []timeseries.Pair) (prevMeasures []pivotMeasure, delta storeDelta, err error) {

	at, ok := prev.findPivot(node.pivot, hint)
	if !ok {
		return nil, delta, nil
	}
	prevNode := &prev.pivots[at]
	if len(changes) == 0 {
		node.seq, node.canon = prevNode.seq, prevNode.canon
		prevMeasures = prevNode.measures
		delta.shared = true
	} else {
		seq := prevNode.seq.Clone()
		for _, p := range changes {
			code := pairCode(p, prev.numSeries)
			if seq.Delete(code, func(sn *sequenceNode) bool { return sn.pair == p }) {
				delta.deleted++
			}
		}
		for _, p := range changes {
			r, ok := rel.Relationship(p)
			if !ok {
				// Refit pruned the pair; the deletion above removed it.
				continue
			}
			sn := newSequenceNode(p, r)
			seq.Insert(pairCode(p, prev.numSeries), &sn)
			delta.inserted++
		}
		node.seq, node.canon = seq, snapshotStore(seq)
		delta.cloned = true
	}
	if node.seq.Len() != rel.PivotLen(pi) {
		return nil, delta, fmt.Errorf("scape: incremental update diverged for pivot %v: store has %d pairs, relationships have %d",
			node.pivot, node.seq.Len(), rel.PivotLen(pi))
	}
	return prevMeasures, delta, nil
}
