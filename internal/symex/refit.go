package symex

import (
	"fmt"
	"slices"

	"affinity/internal/timeseries"
)

// This file implements the streaming half of SYMEX+: re-fitting affine
// relationships after the data window slid, without re-running the
// exploration phase.  The pair→pivot assignment is a function of n and the
// cluster membership ω only, so as long as the clustering is held fixed
// (the streaming engine's policy between re-clusterings) the assignment from
// the original Compute run stays valid and only the least-squares fits have
// to be redone.
//
// Refit takes a staleness set: only relationships whose pair is in the set
// are re-fitted against the new window; the rest are carried over unchanged
// (transforms are immutable, so old and new results share them, and the old
// result is pinned from then on); the relationships it fits are allocated one
// by one, since the next epoch may share any of them.  Passing a nil set
// refits everything, which reproduces exactly what Compute would produce on
// the new window with the same clustering, the pair covariances
// (Result.PairCov) included; a partial refit keeps none.  A full refit writes
// its relationships by value into one slot-aligned slab, which is reused by
// the full refit that recycles the result (RefitOptions.Recycle) unless the
// result was pinned meanwhile.

// RefitOptions configures Refit.
type RefitOptions struct {
	// Stale is the set of sequence pairs whose relationship must be
	// re-fitted.  Nil means every assignment is stale (full refit).
	Stale map[timeseries.Pair]bool
	// Parallelism fans the least-squares fits out over worker goroutines
	// (0 or 1 = sequential), exactly like Options.Parallelism.
	Parallelism int
	// Recycle, when non-nil, is a retired result over the same layout that no
	// reader can reach any more and that is not prev: the new result's
	// relationship slots are written into its slot slice instead of a new
	// one, and a full refit's relationship slab and pair covariances into the
	// recycled result's when that result is not pinned (no younger result
	// shares its relationships).  The recycled result must not be used
	// afterwards.
	Recycle *Result
}

// RefitStats reports the work a Refit run performed.
type RefitStats struct {
	// Refit is the number of relationships re-fitted against the new window.
	Refit int
	// Reused is the number of relationships carried over unchanged.
	Reused int
	// PivotInverses is the number of pivots with a stale relationship that
	// the kernel fitted — those the moment form's exactness guard turned
	// away — each one design-matrix pseudo-inverse.
	PivotInverses int
}

// Refit produces a new Result over the (slid) data matrix d: stale
// relationships are re-fitted the way SYMEX+ fits them (the moment form, the
// kernel where the guard says so), fresh ones are shared with prev.  The
// clustering and the layout (the pair→pivot assignment and its indexes) are
// taken from prev unchanged, so the work beyond the fits is one slice clone
// and a visit to the stale slots; the window's pivot terms and centre
// covariances are the layout's memo, which the engine has filled for d before
// it calls Refit, and one centred dot per stale pair is what is left:
// kernel.CovBlock, one call per worker block.  Unlike Compute, Refit takes no
// centred mirror: it runs on every Advance, where an n·m mirror would either
// stay live or be allocated again whenever its pool misses.  Every centre is
// checked against d's length before anything is reduced.
func Refit(d *timeseries.DataMatrix, prev *Result, opts RefitOptions) (*Result, RefitStats, error) {
	var rs RefitStats
	if err := d.Validate(); err != nil {
		return nil, rs, err
	}
	if prev == nil || prev.Clustering == nil {
		return nil, rs, fmt.Errorf("symex: refit needs a previous result with clustering")
	}
	if err := checkCenters(prev.Clustering, d.NumSamples()); err != nil {
		return nil, rs, err
	}
	layout := prev.layout
	if len(layout.assignments) == 0 {
		return nil, rs, fmt.Errorf("symex: previous result has no assignments to refit")
	}

	// The stale slots in assignment order; nil keeps meaning "every slot".
	var slots []int32
	fitted := len(layout.assignments)
	if opts.Stale != nil {
		slots = make([]int32, 0, len(opts.Stale))
		for pair, isStale := range opts.Stale {
			if slot, ok := layout.Slot(pair); ok && isStale {
				slots = append(slots, int32(slot))
			}
		}
		slices.Sort(slots)
		fitted = len(slots)
	}

	// The spare's slot slice always takes the new slots; its slab and pair
	// covariances only when no younger result reads them.
	spare := opts.Recycle
	if spare == prev {
		spare = nil
	}
	var spareRels []*Relationship
	var spareSlab []Relationship
	var spareCovs []float64
	if spare != nil {
		spareRels = spare.rels
		if !spare.pinned.Load() {
			spareSlab, spareCovs = spare.slab, spare.pairCov
		}
	}
	rels := append(spareRels[:0], prev.rels...)
	f := &fitter{data: d, clustering: prev.Clustering, layout: layout, batch: true}
	var covs []float64
	if slots == nil {
		covs = slices.Grow(spareCovs[:0], len(rels))[:len(rels)]
		f.slab = slices.Grow(spareSlab[:0], len(rels))[:len(rels)]
	} else {
		// The new result shares every relationship it does not refit.
		prev.pinned.Store(true)
	}
	pinvs, err := f.fitSlots(rels, covs, slots, opts.Parallelism)
	if err != nil {
		return nil, rs, err
	}
	res := NewResult(layout, prev.Clustering, rels)
	res.slab, res.pairCov = f.slab, covs
	rs.Refit, rs.Reused, rs.PivotInverses = fitted, len(rels)-fitted, pinvs
	res.Stats.PseudoInverseComputations = pinvs
	res.Stats.PseudoInverseCacheHits = fitted - pinvs
	return res, rs, nil
}
