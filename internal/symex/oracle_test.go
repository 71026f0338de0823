package symex

import "affinity/internal/timeseries"

// The two maps Result used to be, rebuilt from its accessors: the view the
// tests (and the map-based oracle of the store property test) compare in.

// relMap returns the pair→relationship map of a result.
func relMap(r *Result) map[timeseries.Pair]*Relationship {
	out := make(map[timeseries.Pair]*Relationship, r.Len())
	for rel := range r.All() {
		out[rel.Pair] = rel
	}
	return out
}

// pivotPairs returns every pivot's pair list in the order PivotRelationships
// yields it, pivots without a relationship left out.
func pivotPairs(r *Result) map[Pivot][]timeseries.Pair {
	out := make(map[Pivot][]timeseries.Pair)
	for pi, p := range r.Layout().Pivots() {
		for rel := range r.PivotRelationships(pi) {
			out[p] = append(out[p], rel.Pair)
		}
	}
	return out
}
