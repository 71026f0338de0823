package symex

import (
	"fmt"
	"sort"

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
// (transforms are immutable, so old and new results share them).  Passing a
// nil set refits everything, which reproduces exactly what Compute would
// produce on the new window with the same clustering.

// RefitOptions configures Refit.
type RefitOptions struct {
	// Stale is the set of sequence pairs whose relationship must be
	// re-fitted.  Nil means every assignment is stale (full refit).
	Stale map[timeseries.Pair]bool
	// Parallelism fans the least-squares fits out over worker goroutines
	// (0 or 1 = sequential), exactly like Options.Parallelism.
	Parallelism int
	// MaxLSFD re-applies the relationship pruning bound to re-fitted
	// relationships.  Zero disables pruning (and revives previously pruned
	// pairs on refit).  Carried-over relationships keep their previous
	// pruning outcome.
	MaxLSFD float64
}

// RefitStats reports the work a Refit run performed.
type RefitStats struct {
	// Refit is the number of relationships re-fitted against the new window.
	Refit int
	// Reused is the number of relationships carried over unchanged.
	Reused int
	// PivotInverses is the number of design-matrix pseudo-inverses
	// recomputed (one per pivot with at least one stale relationship).
	PivotInverses int
	// Pruned is the number of re-fitted relationships dropped by MaxLSFD.
	Pruned int
}

// Refit produces a new Result over the (slid) data matrix d: stale
// relationships are re-fitted with fresh per-pivot pseudo-inverses, fresh
// ones are shared with prev.  The clustering and the pair→pivot assignment
// are taken from prev unchanged.
func Refit(d *timeseries.DataMatrix, prev *Result, opts RefitOptions) (*Result, RefitStats, error) {
	var rs RefitStats
	if err := d.Validate(); err != nil {
		return nil, rs, err
	}
	if prev == nil || prev.Clustering == nil {
		return nil, rs, fmt.Errorf("symex: refit needs a previous result with clustering")
	}
	if len(prev.Clustering.Centers) > 0 && len(prev.Clustering.Centers[0]) != d.NumSamples() {
		return nil, rs, fmt.Errorf("symex: cluster centers have %d samples, window has %d",
			len(prev.Clustering.Centers[0]), d.NumSamples())
	}
	assignments := prev.AssignmentList()
	if len(assignments) == 0 {
		return nil, rs, fmt.Errorf("symex: previous result has no assignments to refit")
	}

	// The assignment list is frozen with the clustering and never mutated, so
	// every epoch's result shares it.
	res := &Result{
		Relationships: make(map[timeseries.Pair]*Relationship, len(prev.Relationships)),
		Pivots:        make(map[Pivot][]timeseries.Pair, len(prev.Pivots)),
		Assignments:   assignments,
		Clustering:    prev.Clustering,
	}
	// The SCAPE build consumes each pivot's pair list in this order: reused
	// pairs in assignment order, then refit pairs in assignment order.
	keep := func(rel *Relationship) {
		list, ok := res.Pivots[rel.Pivot]
		if !ok {
			list = make([]timeseries.Pair, 0, len(prev.Pivots[rel.Pivot]))
		}
		res.Relationships[rel.Pair] = rel
		res.Pivots[rel.Pivot] = append(list, rel.Pair)
	}

	staleAssign := assignments
	if opts.Stale != nil {
		staleAssign = nil
		for _, a := range assignments {
			if opts.Stale[a.Pair] {
				staleAssign = append(staleAssign, a)
				continue
			}
			if r, ok := prev.Relationships[a.Pair]; ok {
				keep(r)
				rs.Reused++
			}
			// A carried-over pair with no previous relationship was pruned;
			// it stays pruned until its drift marks it stale again.
		}
	}

	f := &fitter{data: d, clustering: prev.Clustering, maxLSFD: opts.MaxLSFD}
	fitted, pinvs, err := f.fitAll(staleAssign, true, opts.Parallelism)
	if err != nil {
		return nil, rs, err
	}
	for _, fr := range fitted {
		if opts.MaxLSFD > 0 && fr.lsfd > opts.MaxLSFD {
			rs.Pruned++
			continue
		}
		keep(fr.rel)
		rs.Refit++
	}
	rs.PivotInverses = pinvs

	res.Stats.NumRelationships = len(res.Relationships)
	res.Stats.NumPivots = len(res.Pivots)
	res.Stats.PrunedRelationships = rs.Pruned
	res.Stats.PseudoInverseComputations = pinvs
	res.Stats.PseudoInverseCacheHits = len(staleAssign) - pinvs
	return res, rs, nil
}

// AssignmentList returns the result's pair→pivot assignments, reconstructing
// them from the relationship map when the result predates assignment
// tracking (e.g. a decoded snapshot, which loses pruned pairs).  The
// reconstructed list is sorted for determinism.
func (r *Result) AssignmentList() []Assignment {
	if len(r.Assignments) > 0 {
		return r.Assignments
	}
	out := make([]Assignment, 0, len(r.Relationships))
	for pair, rel := range r.Relationships {
		out = append(out, Assignment{Pair: pair, Pivot: rel.Pivot})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pair.U != out[j].Pair.U {
			return out[i].Pair.U < out[j].Pair.U
		}
		return out[i].Pair.V < out[j].Pair.V
	})
	return out
}
