// Package shard implements horizontal scale-out for the Affinity engine: a
// Coordinator partitions the pairwise state across N core.Engine shards along
// AFCLST cluster boundaries and executes the full query surface by
// scatter-gather, byte-identical to a single unsharded engine.
//
// The partitioning unit is the SYMEX pivot, not the series: every sequence
// pair carries exactly one pivot assignment (u, ω(v)), so assigning each
// pivot to one shard partitions the O(n²) pair set exactly — relationships,
// pivot summaries and SCAPE pivot nodes are all keyed by pivot and therefore
// land wholly on one shard.  Pivots of the same cluster are co-located
// (cluster-aligned placement), which keeps each shard's pivot summaries
// reading a small set of cluster centers; the cheap O(n) per-series state
// (calibration, location estimates) is replicated on every shard, and all
// shards read the same immutable data window and its one memoised reduction to
// per-series moments.
package shard

import (
	"fmt"
	"sort"

	"affinity/internal/symex"
)

// Placement assigns every SYMEX pivot to a shard.
type Placement struct {
	// Shards is the effective shard count: the requested count, lowered when
	// there are fewer placement groups (or when a greedy assignment would
	// leave a shard without a surviving affine relationship, which the SCAPE
	// build rejects).
	Shards int
	// Owner maps every assigned pivot to its shard.
	Owner map[symex.Pivot]int
	// Loads is the series-count weight packed onto each shard.
	Loads []int
	// Groups is the number of placement groups (clusters, plus extra chunks
	// from splitting oversized clusters).
	Groups int
	// SplitClusters counts clusters that exceeded the shard budget and were
	// split into pivot chunks (the documented fallback for a cluster larger
	// than ceil(n/S)).
	SplitClusters int
}

// placementGroup is one unit of the greedy bin-packing: all pivots of one
// cluster, or one contiguous pivot chunk of an oversized cluster.
type placementGroup struct {
	cluster int
	chunk   int
	weight  int
	pivots  []symex.Pivot
}

// ComputePlacement bin-packs the relationship result's pivots onto at most
// `shards` shards:
//
//  1. pivots group by AFCLST cluster, weighted by the cluster's series count
//     (the paper's clusters are the natural affinity boundary: pairs whose
//     pivot shares a cluster share that cluster's center column);
//  2. a cluster heavier than the shard budget ceil(n/S) is split into
//     ceil(weight/budget) contiguous chunks of its canonically-ordered pivot
//     list, each carrying a proportional share of the weight — the documented
//     fallback that keeps one huge cluster from serializing the whole fleet;
//  3. groups are assigned heaviest-first to the least-loaded shard (ties by
//     (cluster, chunk) and by lowest shard id), so the placement is a pure
//     function of the relationship result and the shard count.
//
// Every shard must own at least one surviving affine relationship (the SCAPE
// build requires a non-empty relationship set); if a shard count leaves some
// shard empty, the count is lowered until the constraint holds.
func ComputePlacement(rel *symex.Result, shards int) (Placement, error) {
	if rel == nil || rel.Clustering == nil {
		return Placement{}, fmt.Errorf("shard: placement needs a relationship result with clustering")
	}
	if shards < 1 {
		return Placement{}, fmt.Errorf("shard: need at least one shard, got %d", shards)
	}
	if rel.Len() == 0 {
		return Placement{}, fmt.Errorf("shard: no affine relationships to place")
	}
	n := len(rel.Clustering.Assignment)

	// Distinct assigned pivots in canonical order, grouped by cluster.  The
	// layout covers pruned pairs too, so every pivot a streaming refit could
	// revive gets an owner.
	pivots := rel.Layout().Pivots()

	sizes := rel.Clustering.Sizes()
	byCluster := make(map[int][]symex.Pivot)
	var clusterOrder []int
	for _, p := range pivots {
		if _, ok := byCluster[p.Cluster]; !ok {
			clusterOrder = append(clusterOrder, p.Cluster)
		}
		byCluster[p.Cluster] = append(byCluster[p.Cluster], p)
	}
	sort.Ints(clusterOrder)

	// Relationship counts per pivot, for the non-empty-shard constraint.
	relCount := make(map[symex.Pivot]int, len(pivots))
	for pi, p := range pivots {
		relCount[p] = rel.PivotLen(pi)
	}

	for s := shards; s >= 1; s-- {
		pl, ok := tryPlacement(n, s, clusterOrder, byCluster, sizes, relCount)
		if ok {
			return pl, nil
		}
	}
	// Unreachable: one shard owns every pivot and there is at least one
	// relationship.
	return Placement{}, fmt.Errorf("shard: could not place %d pivots", len(pivots))
}

// tryPlacement attempts the greedy packing at one shard count, reporting
// whether every shard ended up with at least one surviving relationship.
func tryPlacement(n, shards int, clusterOrder []int, byCluster map[int][]symex.Pivot,
	sizes []int, relCount map[symex.Pivot]int) (Placement, bool) {
	budget := (n + shards - 1) / shards
	if budget < 1 {
		budget = 1
	}

	var groups []placementGroup
	splitClusters := 0
	for _, cl := range clusterOrder {
		ps := byCluster[cl]
		weight := 0
		if cl >= 0 && cl < len(sizes) {
			weight = sizes[cl]
		}
		if weight < 1 {
			weight = 1
		}
		chunks := 1
		if weight > budget && len(ps) > 1 {
			chunks = (weight + budget - 1) / budget
			if chunks > len(ps) {
				chunks = len(ps)
			}
			splitClusters++
		}
		// Contiguous near-equal chunks of the canonical pivot list; weight is
		// distributed proportionally with the remainder on the earliest chunks.
		per := len(ps) / chunks
		extra := len(ps) % chunks
		wPer := weight / chunks
		wExtra := weight % chunks
		start := 0
		for ch := 0; ch < chunks; ch++ {
			size := per
			if ch < extra {
				size++
			}
			w := wPer
			if ch < wExtra {
				w++
			}
			groups = append(groups, placementGroup{
				cluster: cl, chunk: ch, weight: w, pivots: ps[start : start+size],
			})
			start += size
		}
	}
	if shards > len(groups) {
		shards = len(groups)
	}

	sort.Slice(groups, func(i, j int) bool {
		if groups[i].weight != groups[j].weight {
			return groups[i].weight > groups[j].weight
		}
		if groups[i].cluster != groups[j].cluster {
			return groups[i].cluster < groups[j].cluster
		}
		return groups[i].chunk < groups[j].chunk
	})

	pl := Placement{
		Shards:        shards,
		Owner:         make(map[symex.Pivot]int),
		Loads:         make([]int, shards),
		Groups:        len(groups),
		SplitClusters: splitClusters,
	}
	rels := make([]int, shards)
	for _, g := range groups {
		best := 0
		for s := 1; s < shards; s++ {
			if pl.Loads[s] < pl.Loads[best] {
				best = s
			}
		}
		pl.Loads[best] += g.weight
		for _, p := range g.pivots {
			pl.Owner[p] = best
			rels[best] += relCount[p]
		}
	}
	for _, r := range rels {
		if r == 0 {
			return Placement{}, false
		}
	}
	return pl, true
}

// Restrict builds shard s's relationship result: the global assignments and
// relationships filtered to the pivots s owns, preserving the global
// assignment order (so each shard's pivot nodes, summaries and refits are
// built from exactly the slices of the global structures a single engine would
// use).  slots[i] is the global slot of the shard result's slot i — what the
// coordinator copies back through when it merges an epoch.  The clustering is
// shared, not copied.
func Restrict(rel *symex.Result, owner map[symex.Pivot]int, s int) (restricted *symex.Result, slots []int32, err error) {
	var assignments []symex.Assignment
	var rels []*symex.Relationship
	for slot, a := range rel.AssignmentList() {
		if owner[a.Pivot] == s {
			slots = append(slots, int32(slot))
			assignments = append(assignments, a)
			rels = append(rels, rel.At(slot))
		}
	}
	layout, err := symex.NewLayout(len(rel.Clustering.Assignment), assignments)
	if err != nil {
		return nil, nil, err
	}
	return symex.NewResult(layout, rel.Clustering, rels), slots, nil
}
