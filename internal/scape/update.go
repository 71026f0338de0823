package scape

import (
	"fmt"
	"sort"

	"affinity/internal/btree"
	"affinity/internal/par"
	"affinity/internal/stats"
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
// re-fitted.  Pivot sequence stores are cloned copy-on-write and only the
// stale pairs' entries are deleted/re-inserted; everything derived from the
// slid window (α vectors, scalar projections, parameter bounds, location
// estimates) is recomputed through the exact code path Build uses, so the
// result answers every query byte-identically to Build(d, rel, ...) on the
// same window.  The previous index is never mutated and stays fully
// queryable.
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
		idx, err := Build(d, rel, bopts)
		if err != nil {
			return nil, us, err
		}
		us.ScratchGets = idx.stats.ScratchGets
		us.ScratchHits = idx.stats.ScratchHits
		return idx, us, nil
	}

	buildOpts := prev.opts
	buildOpts.BuildParallelism = opts.Parallelism
	idx := &Index{
		opts:         buildOpts,
		byPivot:      make(map[symex.Pivot]*pivotNode),
		location:     make(map[stats.Measure]*btree.Tree[seriesEntry]),
		pairMeasures: prev.pairMeasures,
		derivedSet:   prev.derivedSet,
		locationSet:  prev.locationSet,
		numSamples:   d.NumSamples(),
		numSeries:    prev.numSeries,
	}
	perSeries, err := computeSeriesStats(d, opts.Parallelism)
	if err != nil {
		return nil, us, err
	}
	idx.perSeries = perSeries
	centers, err := computeCenterMoments(rel)
	if err != nil {
		return nil, us, err
	}

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
		sort.Slice(list, func(i, j int) bool { return pairLess(list[i], list[j]) })
	}

	pivotOrder := livePivots(rel)

	type updNode struct {
		node     *pivotNode
		deleted  int
		inserted int
		shared   bool
		cloned   bool
		rebuilt  bool
	}
	results, err := par.Gather(len(pivotOrder), opts.Parallelism, func(i int) (updNode, error) {
		pi := pivotOrder[i]
		pivot := layout.Pivots()[pi]
		prevNode := prev.byPivot[pivot]
		if prevNode == nil {
			node, err := idx.buildPivotNode(d, rel, pi, perSeries, centers)
			return updNode{node: node, rebuilt: true}, err
		}
		changes := staleByPivot[pi]
		var un updNode
		var seq *btree.Tree[*sequenceNode]
		if len(changes) == 0 {
			// Nothing assigned to this pivot was refit: the store is shared
			// wholesale with the previous epoch.
			seq = prevNode.seq
			un.shared = true
		} else {
			seq = prevNode.seq.Clone()
			for _, p := range changes {
				code := pairCode(p, idx.numSeries)
				if seq.Delete(code, func(sn *sequenceNode) bool { return sn.pair == p }) {
					un.deleted++
				}
			}
			for _, p := range changes {
				r, ok := rel.Relationship(p)
				if !ok {
					// Refit pruned the pair; the deletion above removed it.
					continue
				}
				seq.Insert(pairCode(p, idx.numSeries), newSequenceNode(p, r))
				un.inserted++
			}
			un.cloned = true
		}
		if seq.Len() != rel.PivotLen(pi) {
			return un, fmt.Errorf("scape: incremental update diverged for pivot %v: store has %d pairs, relationships have %d",
				pivot, seq.Len(), rel.PivotLen(pi))
		}
		node, err := idx.finishPivotNode(d, rel, pivot, seq, perSeries, centers)
		un.node = node
		return un, err
	})
	if err != nil {
		return nil, us, err
	}

	for _, un := range results {
		idx.pivots = append(idx.pivots, un.node)
		idx.byPivot[un.node.pivot] = un.node
		idx.stats.TotalTreeInsertion += un.node.insertions
		idx.stats.ScratchGets++
		if un.node.scratchHit {
			idx.stats.ScratchHits++
		}
		us.EntriesDeleted += un.deleted
		us.EntriesInserted += un.inserted
		switch {
		case un.shared:
			us.StoresShared++
		case un.cloned:
			us.StoresCloned++
		case un.rebuilt:
			us.StoresRebuilt++
		}
	}

	// Location estimates change with the window every epoch; they are rebuilt
	// exactly as Build does.
	if len(idx.opts.LocationMeasures) > 0 {
		if err := idx.buildLocationTrees(d, rel); err != nil {
			return nil, us, err
		}
	}

	idx.stats.Pivots = len(idx.pivots)
	idx.stats.SequenceNodes = rel.Len()
	idx.stats.IndexedTMeasures = len(idx.pairMeasures)
	idx.stats.IndexedDMeasures = len(idx.derivedSet)
	idx.stats.IndexedLMeasures = len(idx.locationSet)
	idx.stats.DerivedPruningOn = !idx.opts.DisableDerivedPruning
	us.ScratchGets = idx.stats.ScratchGets
	us.ScratchHits = idx.stats.ScratchHits
	return idx, us, nil
}
