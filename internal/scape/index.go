// Package scape implements the SCAPE (SCAlar ProjEction) index of Section 5
// of the paper: a measure-agnostic index over affine relationships that
// answers measure threshold (MET) and measure range (MER) queries without
// recomputing the measure for every query.
//
// # Structure
//
// For every pivot pair p_q produced by SYMEX+ the index keeps a pivot node
// with, per indexed measure, the vector α_q and its norm ‖α_q‖; the sequence
// pairs assigned to the pivot are stored in sorted containers keyed
// by the scalar projection ξ_qd = α_qᵀβ_qd / ‖α_q‖, where β_qd = (a12, a22,
// b2) is derived purely from the affine relationship (A, b)_e.  Because all
// affine relationships are built with the common series as the first column,
// the measure value of a sequence pair factors exactly as α_qᵀβ_qd = ‖α_q‖·ξ_qd
// (Observation 1 and Table 2):
//
//	covariance:  α = (Σ11(O_p), Σ12(O_p), 0)
//	dot product: α = (Π11(O_p), Π12(O_p), h1(O_p))
//	location:    α = (L1(O_p), L2(O_p), 1)
//
// The scalar projection depends on α and therefore on the measure; the index
// stores one sorted container per (pivot, measure) sharing the sequence-node
// payloads, which keeps the paper's single-index query algorithms intact
// while remaining exactly correct for every measure.  β is computed once per
// relationship and never changes.
//
// D-measures are indexed through their base T-measure: each sequence node
// additionally stores the separable normalizer U_e of every indexed
// D-measure, and each pivot node stores the minimum and maximum normalizer
// among its sequence nodes (U^min_q, U^max_q), which drive the index pruning
// of Section 5.3.
//
// Location (L-) measures apply to single series rather than pairs; the index
// maintains one global B-tree per L-measure keyed by the series' measure
// value estimated through an affine relationship (falling back to a direct
// computation for series that only ever appear as the common member).
//
// # Containers
//
// Two kinds of sorted container back the index, chosen by how they change.
// A pivot's sequence store (keyed by pair code) and the location trees are
// B-trees (internal/btree): the sequence store lives across epochs and is
// mutated — Update clones it copy-on-write and deletes and re-inserts only
// the stale pairs — and the location trees are filled by ordered inserts.
// The per-(pivot, measure) ξ-containers are sorted arrays (xiArray): ξ depends
// on the window, so every epoch derives them afresh in one piece and nothing
// ever mutates them; an exact-size array is a fraction of a bulk-loaded
// tree's memory and build time and scans at least as fast.
package scape

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"affinity/internal/btree"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/stats"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// ErrMeasureNotIndexed is returned when a query references a measure the
// index was not built for (or that SCAPE cannot index, such as a D-measure
// with a non-separable normalizer).
var ErrMeasureNotIndexed = errors.New("scape: measure not indexed")

// ErrBadQuery is returned for malformed query parameters.
var ErrBadQuery = errors.New("scape: bad query")

// Options configures the index build.
//
// For the measure lists, a nil slice selects the default set while an
// explicitly empty (non-nil) slice selects none of that kind; the latter is
// used by experiments that index a single measure class in isolation.
type Options struct {
	// PairMeasures lists the T-measures to index.  D-measures are answered
	// through their base T-measure and do not need to be listed.  Nil selects
	// all T-measures (covariance and dot product).
	PairMeasures []stats.Measure
	// DerivedMeasures lists the D-measures for which normalizers and pruning
	// bounds should be maintained.  Nil selects every D-measure with a
	// separable normalizer (correlation, cosine, Dice, harmonic mean).
	DerivedMeasures []stats.Measure
	// LocationMeasures lists the L-measures to index over individual series.
	// Nil selects mean, median and mode.
	LocationMeasures []stats.Measure
	// DisableDerivedPruning turns off the U^min/U^max pruning of Section 5.3
	// (every candidate's exact derived value is evaluated instead).  Used by
	// the ablation benchmark; queries return identical results either way.
	DisableDerivedPruning bool
	// Parallelism is the number of goroutines used to shard threshold/range
	// scans by pivot at query time, and — unless BuildParallelism overrides
	// it — to build the pivot nodes (one container set per pivot).  Zero or one
	// runs sequentially.  Pivot nodes are kept in a deterministic
	// (Common, Cluster) order and per-pivot partial results are merged in
	// that order, so query results are byte-identical at any level.
	Parallelism int
	// BuildParallelism, when positive, overrides Parallelism for the build
	// only (the streaming engine rebuilds the index with its Advance-time
	// worker count while queries keep the engine-wide one).
	BuildParallelism int
}

// buildParallelism returns the worker count for index construction.
func (o Options) buildParallelism() int {
	if o.BuildParallelism > 0 {
		return o.BuildParallelism
	}
	return o.Parallelism
}

func (o Options) withDefaults() Options {
	if o.PairMeasures == nil {
		o.PairMeasures = stats.TMeasures()
	}
	if o.DerivedMeasures == nil {
		o.DerivedMeasures = SeparableDerivedMeasures()
	}
	if o.LocationMeasures == nil {
		o.LocationMeasures = stats.LMeasures()
	}
	return o
}

// SeparableDerivedMeasures returns the D-measures the index can serve: those
// whose spec declares a separable parameter with a monotone, invertible value
// transform (Section 5.1, "Indexing D-Measures", generalized to decreasing
// transforms).  The generalized Jaccard coefficient declares itself
// non-indexable: its transform has a pole inside the reachable base range.
func SeparableDerivedMeasures() []stats.Measure {
	return measure.IndexableDerived()
}

// sequenceNode is the per-relationship payload shared by all per-measure
// ξ-containers of a pivot node.  It holds only window-independent state (the pair
// and its affine β), so incremental updates can carry nodes of unchanged
// relationships across epochs untouched; the separable D-measure parameters
// U_e are derived at query time from the index's per-series statistics.
type sequenceNode struct {
	pair timeseries.Pair
	beta [3]float64
}

// pivotMeasure is the per-(pivot, measure) state: α, ‖α‖ and the sorted
// container of sequence nodes keyed by scalar projection.
type pivotMeasure struct {
	alpha     [3]float64
	alphaNorm float64
	xi        xiArray
}

// pivotNode groups everything the index stores for one pivot pair.
type pivotNode struct {
	pivot    symex.Pivot
	measures map[stats.Measure]*pivotMeasure
	// seq is the pivot's sequence store: the canonical container of sequence
	// nodes keyed by pair code (a total order over canonical pairs).  It holds
	// the window-independent payloads the per-measure ξ-containers are derived
	// from, and is the unit of cross-epoch sharing: Update clones it
	// copy-on-write and applies only the stale pairs' deletions/insertions.
	seq *btree.Tree[*sequenceNode]
	// paramBounds[measure] = (U^min_q, U^max_q) across the pivot's sequence
	// nodes, for every indexed D-measure; they drive the Section 5.3 pruning.
	paramBounds map[stats.Measure][2]float64
	pairs       int
	// insertions counts the ξ-container entries created while building this
	// node; nodes are built in parallel, so the counter is per-node and summed
	// into BuildStats afterwards.
	insertions int
	// scratchHit records whether the node's build scratch came from the pool.
	scratchHit bool
}

// seriesEntry is the payload of the global location trees.
type seriesEntry struct {
	id    timeseries.SeriesID
	value float64
}

// BuildStats summarizes the index contents.
type BuildStats struct {
	Pivots             int
	SequenceNodes      int
	IndexedTMeasures   int
	IndexedDMeasures   int
	IndexedLMeasures   int
	LocationEstimated  int // series whose L-value came from an affine relationship
	LocationComputed   int // series whose L-value was computed directly (fallback)
	DerivedPruningOn   bool
	TotalTreeInsertion int
	// ScratchGets/ScratchHits count per-pivot scratch buffer requests and how
	// many were satisfied from the shared pool (vs freshly allocated).
	ScratchGets int
	ScratchHits int
}

// Index is the SCAPE index.
type Index struct {
	opts    Options
	pivots  []*pivotNode
	byPivot map[symex.Pivot]*pivotNode
	// location[measure] holds the global per-series tree for an L-measure.
	location map[stats.Measure]*btree.Tree[seriesEntry]
	// pairMeasures / derivedSet for quick membership checks.
	pairMeasures map[stats.Measure]bool
	derivedSet   map[stats.Measure]bool
	locationSet  map[stats.Measure]bool
	numSamples   int
	numSeries    int
	// perSeries holds the window's per-series variance and squared norm; the
	// separable D-measure parameters U_e are computed from it at query time.
	perSeries *seriesStats
	stats     BuildStats
}

// Stats returns build statistics.
func (idx *Index) Stats() BuildStats { return idx.stats }

// NumPivots returns the number of pivot nodes.
func (idx *Index) NumPivots() int { return len(idx.pivots) }

// Build constructs a SCAPE index from the affine relationships produced by
// SYMEX/SYMEX+ over the given data matrix.
func Build(d *timeseries.DataMatrix, rel *symex.Result, opts Options) (*Index, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if rel == nil || rel.Len() == 0 {
		return nil, fmt.Errorf("scape: no affine relationships to index")
	}
	opts = opts.withDefaults()
	for _, m := range opts.PairMeasures {
		sp, ok := measure.Find(m)
		if !ok || sp.Derived() || !sp.Pairwise() {
			return nil, fmt.Errorf("%w: %v is not a T-measure", ErrBadQuery, m)
		}
	}
	for _, m := range opts.DerivedMeasures {
		sp, ok := measure.Find(m)
		if !ok || !sp.Derived() {
			return nil, fmt.Errorf("%w: %v is not a D-measure", ErrBadQuery, m)
		}
		if !sp.Indexable {
			return nil, fmt.Errorf("%w: %v has a non-separable normalizer", ErrMeasureNotIndexed, m)
		}
	}
	for _, m := range opts.LocationMeasures {
		sp, ok := measure.Find(m)
		if !ok || !sp.Location() {
			return nil, fmt.Errorf("%w: %v is not an L-measure", ErrBadQuery, m)
		}
	}

	idx := &Index{
		opts:         opts,
		byPivot:      make(map[symex.Pivot]*pivotNode),
		location:     make(map[stats.Measure]*btree.Tree[seriesEntry]),
		pairMeasures: make(map[stats.Measure]bool),
		derivedSet:   make(map[stats.Measure]bool),
		locationSet:  make(map[stats.Measure]bool),
		numSamples:   d.NumSamples(),
		numSeries:    d.NumSeries(),
	}
	for _, m := range opts.PairMeasures {
		idx.pairMeasures[m] = true
	}
	for _, m := range opts.DerivedMeasures {
		idx.derivedSet[m] = true
		// A derived measure needs its base T-measure to be indexed.
		idx.pairMeasures[m.Base()] = true
	}
	for _, m := range opts.LocationMeasures {
		idx.locationSet[m] = true
	}

	// Per-series quantities for separable normalizers (variance and squared
	// norm), computed once in O(n·m).
	perSeries, err := computeSeriesStats(d, opts.buildParallelism())
	if err != nil {
		return nil, err
	}
	idx.perSeries = perSeries

	// Build pivot nodes, one per pivot with a relationship, in the canonical
	// (Common, Cluster) order.  The nodes are independent — each owns its
	// containers — so they are built in parallel and gathered in index order;
	// queries later scan idx.pivots in this same order, which is what makes
	// result ordering independent of parallelism.
	pivotOrder := livePivots(rel)
	centers, err := computeCenterMoments(rel)
	if err != nil {
		return nil, err
	}
	nodes, err := par.Gather(len(pivotOrder), opts.buildParallelism(), func(i int) (*pivotNode, error) {
		return idx.buildPivotNode(d, rel, pivotOrder[i], perSeries, centers)
	})
	if err != nil {
		return nil, err
	}
	treeInsertions := 0
	for _, node := range nodes {
		idx.pivots = append(idx.pivots, node)
		idx.byPivot[node.pivot] = node
		treeInsertions += node.insertions
		idx.stats.ScratchGets++
		if node.scratchHit {
			idx.stats.ScratchHits++
		}
	}
	idx.stats.TotalTreeInsertion += treeInsertions

	// Build global location trees.
	if len(opts.LocationMeasures) > 0 {
		if err := idx.buildLocationTrees(d, rel); err != nil {
			return nil, err
		}
	}

	idx.stats.Pivots = len(idx.pivots)
	idx.stats.SequenceNodes = rel.Len()
	idx.stats.IndexedTMeasures = len(idx.pairMeasures)
	idx.stats.IndexedDMeasures = len(idx.derivedSet)
	idx.stats.IndexedLMeasures = len(idx.locationSet)
	idx.stats.DerivedPruningOn = !opts.DisableDerivedPruning
	return idx, nil
}

// livePivots returns the pivots that get a node — those with at least one
// relationship — as ascending positions in the layout's canonical pivot list.
func livePivots(rel *symex.Result) []int {
	var out []int
	for pi := range rel.Layout().Pivots() {
		if rel.PivotLen(pi) > 0 {
			out = append(out, pi)
		}
	}
	return out
}

// seriesStats caches per-series variance, squared norm and sum.
type seriesStats struct {
	variance []float64
	sqNorm   []float64
	sum      []float64
}

// stat returns the SeriesStat bundle of one series for spec parameters.
func (s *seriesStats) stat(id timeseries.SeriesID) measure.SeriesStat {
	return measure.SeriesStat{Variance: s.variance[id], SqNorm: s.sqNorm[id]}
}

func computeSeriesStats(d *timeseries.DataMatrix, parallelism int) (*seriesStats, error) {
	n := d.NumSeries()
	out := &seriesStats{
		variance: make([]float64, n),
		sqNorm:   make([]float64, n),
		sum:      make([]float64, n),
	}
	ids := d.IDs()
	err := par.Do(len(ids), parallelism, func(i int) error {
		id := ids[i]
		s, err := d.Series(id)
		if err != nil {
			return err
		}
		v, err := stats.VarianceOf(s)
		if err != nil {
			return err
		}
		sq, err := stats.DotProductOf(s, s)
		if err != nil {
			return err
		}
		out.variance[id] = v
		out.sqNorm[id] = sq
		out.sum[id] = stats.SumOf(s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// centerMoments caches the self-moments of one cluster center: every pivot of
// the same cluster shares them, so they are reduced once per epoch instead of
// once per pivot.  The values come from the same slice primitives
// finishPivotNode used to call per pivot, so they are bit-identical.
type centerMoments struct {
	variance float64 // VarianceOf(center)
	sqNorm   float64 // DotProductOf(center, center)
	sum      float64 // SumOf(center)
}

// computeCenterMoments reduces each cluster center once.
func computeCenterMoments(rel *symex.Result) ([]centerMoments, error) {
	out := make([]centerMoments, len(rel.Clustering.Centers))
	for l, center := range rel.Clustering.Centers {
		v, err := stats.VarianceOf(center)
		if err != nil {
			return nil, err
		}
		sq, err := stats.DotProductOf(center, center)
		if err != nil {
			return nil, err
		}
		out[l] = centerMoments{variance: v, sqNorm: sq, sum: stats.SumOf(center)}
	}
	return out, nil
}

// pairCode maps a canonical pair to a float64 key that is strictly monotone
// in (U, V) lexicographic order, so a sequence store's scan order is the
// canonical pair order.  IDs are dense [0, numSeries), so U·numSeries+V stays
// far below 2^53 and the encoding is exact.
func pairCode(e timeseries.Pair, numSeries int) float64 {
	return float64(int(e.U)*numSeries + int(e.V))
}

// newSequenceNode builds the window-independent payload of one relationship.
func newSequenceNode(e timeseries.Pair, r *symex.Relationship) *sequenceNode {
	return &sequenceNode{
		pair: e,
		beta: [3]float64{r.Transform.A[0][1], r.Transform.A[1][1], r.Transform.B[1]},
	}
}

// buildPivotNode constructs the node of pivot pi (a position in the layout's
// pivot list) from scratch: the sequence store in canonical pair order, then
// the window-dependent state on top of it.
func (idx *Index) buildPivotNode(d *timeseries.DataMatrix, rel *symex.Result,
	pi int, perSeries *seriesStats, centers []centerMoments) (*pivotNode, error) {

	// The layout hands the pivot's relationships over in canonical pair order
	// already: bulk-load one sequence node each.
	codes := make([]float64, 0, rel.PivotLen(pi))
	nodes := make([]*sequenceNode, 0, rel.PivotLen(pi))
	for r := range rel.PivotRelationships(pi) {
		nodes = append(nodes, newSequenceNode(r.Pair, r))
		codes = append(codes, pairCode(r.Pair, idx.numSeries))
	}
	seq := btree.FromSorted(codes, nodes)
	return idx.finishPivotNode(d, rel, rel.Layout().Pivots()[pi], seq, perSeries, centers)
}

// pivotScratch holds the reusable per-pivot build buffers.  The buffers grow
// to the largest pivot they have served and are recycled through a pool
// across pivots and epochs, keeping the per-epoch allocation count
// independent of the number of relationships.
type pivotScratch struct {
	nodes   []*sequenceNode
	entries []xiEntry
}

var pivotScratchPool sync.Pool

// getScratch returns a scratch buffer and whether it came from the pool.
func getScratch() (*pivotScratch, bool) {
	if v := pivotScratchPool.Get(); v != nil {
		return v.(*pivotScratch), true
	}
	return &pivotScratch{}, false
}

func putScratch(sc *pivotScratch) { pivotScratchPool.Put(sc) }

// finishPivotNode derives all window-dependent per-pivot state — α per
// measure, the D-measure parameter bounds, and the per-measure ξ-containers — from
// a pivot's sequence store.  It is the single code path shared by Build and
// Update, which is what makes incrementally maintained indexes byte-identical
// to freshly built ones: both sides feed the same sequence-node payloads, in
// the same canonical pair order, through the same floating-point operations.
func (idx *Index) finishPivotNode(d *timeseries.DataMatrix, rel *symex.Result,
	pivot symex.Pivot, seq *btree.Tree[*sequenceNode], perSeries *seriesStats, centers []centerMoments) (*pivotNode, error) {

	// The pivot's second-moment terms are reduced straight off the two column
	// slices of O_p = [s_common, r_cluster] — bit-identical to reducing a
	// materialized pair matrix (stats.PairMatrix* delegate to these same slice
	// primitives), but without the two column copies and the row-major matrix
	// allocation per pivot, which dominated the build profile.  The self-moments
	// of both columns are memoized (per series in perSeries, per cluster in
	// centers), leaving only the two cross-column reductions per pivot.
	common, center, err := rel.PivotColumns(d, pivot)
	if err != nil {
		return nil, err
	}
	cov, err := stats.CovarianceOf(common, center)
	if err != nil {
		return nil, err
	}
	d01, err := stats.DotProductOf(common, center)
	if err != nil {
		return nil, err
	}
	cm := centers[pivot.Cluster]
	terms := measure.PivotTerms{
		Cov:        [3]float64{perSeries.variance[pivot.Common], cov, cm.variance},
		Dot:        [3]float64{perSeries.sqNorm[pivot.Common], d01, cm.sqNorm},
		ColSums:    [2]float64{perSeries.sum[pivot.Common], cm.sum},
		NumSamples: idx.numSamples,
	}

	node := &pivotNode{
		pivot:       pivot,
		seq:         seq,
		measures:    make(map[stats.Measure]*pivotMeasure),
		paramBounds: make(map[stats.Measure][2]float64),
		pairs:       seq.Len(),
	}

	// α per indexed T-measure is the first row of the measure's augmented
	// second-moment matrix (Observation 1 / Table 2 fall out of the algebra).
	for m := range idx.pairMeasures {
		alpha := measure.Lookup(m).Moment(terms).Alpha()
		node.measures[m] = &pivotMeasure{
			alpha:     alpha,
			alphaNorm: vec3Norm(alpha),
		}
	}

	sc, hit := getScratch()
	node.scratchHit = hit
	defer putScratch(sc)

	// Snapshot the store in canonical pair order once; every derived
	// structure below walks this slice.
	nodes := sc.nodes[:0]
	seq.Ascend(func(_ float64, sn *sequenceNode) bool {
		nodes = append(nodes, sn)
		return true
	})
	sc.nodes = nodes

	// Parameter bounds (U^min_q, U^max_q) per indexed D-measure over the
	// pivot's pairs; the parameters depend on the window's per-series
	// statistics and are therefore recomputed every epoch.
	for m := range idx.derivedSet {
		param := measure.Lookup(m).Param
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sn := range nodes {
			u := param(perSeries.stat(sn.pair.U), perSeries.stat(sn.pair.V))
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
		}
		node.paramBounds[m] = [2]float64{lo, hi}
	}

	// ξ-containers: project every node, sort by (ξ, canonical pair rank) and
	// lay keys and nodes out side by side.  One exact-size allocation of each
	// kind serves all of the pivot's measures.
	k := len(nodes)
	keys := make([]float64, k*len(node.measures))
	vals := make([]*sequenceNode, k*len(node.measures))
	for _, pm := range node.measures {
		entries := sc.entries[:0]
		for rank, sn := range nodes {
			entries = append(entries, xiEntry{xi: scalarProjection(pm, sn.beta), rank: int32(rank)})
		}
		sc.entries = entries
		sortXi(entries)
		pm.xi = xiArray{keys: keys[:k:k], nodes: vals[:k:k]}
		keys, vals = keys[k:], vals[k:]
		for i, e := range entries {
			pm.xi.keys[i] = e.xi
			pm.xi.nodes[i] = nodes[e.rank]
		}
		node.insertions += k
	}
	return node, nil
}

// buildLocationTrees estimates every series' L-measures (through an affine
// relationship when the series appears as the non-common member of one,
// directly otherwise) and inserts them into the global location trees.
func (idx *Index) buildLocationTrees(d *timeseries.DataMatrix, rel *symex.Result) error {
	// Pick, for every series, one relationship in which it is the "other"
	// (non-common) member: the candidate with the smallest canonical pair, so
	// the estimate (and thus the tree contents) does not depend on the order
	// the relationships are stored in.
	chosen := make([]*symex.Relationship, d.NumSeries())
	for r := range rel.All() {
		if cur := chosen[r.Other()]; cur == nil || pairLess(r.Pair, cur.Pair) {
			chosen[r.Other()] = r
		}
	}

	measures := sortedMeasures(idx.locationSet)
	for _, m := range measures {
		idx.location[m] = btree.New[seriesEntry]()
	}

	// Reduce each distinct pivot matrix once per measure, in parallel over
	// pivots (the O(|pivots|·m) part of the build).
	var pivotOrder []symex.Pivot
	seen := make(map[symex.Pivot]bool)
	ids := d.IDs()
	for _, id := range ids {
		if r := chosen[id]; r != nil && !seen[r.Pivot] {
			seen[r.Pivot] = true
			pivotOrder = append(pivotOrder, r.Pivot)
		}
	}
	// Cluster-center locations are shared by every pivot of the same cluster;
	// compute each distinct center once and let the per-pivot reduction below
	// read the memo (bit-identical: the same ComputeLocation call on the same
	// center slice).
	centerLoc := make(map[int]map[stats.Measure]float64)
	for _, p := range pivotOrder {
		if _, ok := centerLoc[p.Cluster]; ok {
			continue
		}
		_, center, err := rel.PivotColumns(d, p)
		if err != nil {
			return err
		}
		locs := make(map[stats.Measure]float64, len(measures))
		for _, m := range measures {
			v, err := stats.ComputeLocation(m, center)
			if err != nil {
				return err
			}
			locs[m] = v
		}
		centerLoc[p.Cluster] = locs
	}
	type pivotLoc struct {
		values map[stats.Measure][2]float64
	}
	pivotLocs, err := par.Gather(len(pivotOrder), idx.opts.buildParallelism(), func(i int) (pivotLoc, error) {
		// L-measures of the common series off the window itself: order
		// statistics read its sorted column (slid, not re-sorted, from epoch
		// to epoch), bit-identical to reducing the raw column.
		pl := pivotLoc{values: make(map[stats.Measure][2]float64, len(measures))}
		for _, m := range measures {
			lc, err := stats.WindowLocation(m, d, pivotOrder[i].Common)
			if err != nil {
				return pivotLoc{}, err
			}
			pl.values[m] = [2]float64{lc, centerLoc[pivotOrder[i].Cluster][m]}
		}
		return pl, nil
	})
	if err != nil {
		return err
	}
	locByPivot := make(map[symex.Pivot]pivotLoc, len(pivotOrder))
	for i, p := range pivotOrder {
		locByPivot[p] = pivotLocs[i]
	}

	// Per-series values, sharded by series; the direct (fallback) computation
	// dominates here for series that only appear as the common member.
	values := make([]map[stats.Measure]float64, len(ids))
	estimated := 0
	err = par.Do(len(ids), idx.opts.buildParallelism(), func(i int) error {
		id := ids[i]
		r := chosen[id]
		vals := make(map[stats.Measure]float64, len(measures))
		for _, m := range measures {
			if r != nil {
				// L(other) = L(O_p)ᵀ·a2 + b2  (second component of Eq. 5).
				propagated := r.Transform.PropagateLocation(locByPivot[r.Pivot].values[m])
				vals[m] = propagated[1]
				continue
			}
			v, err := stats.WindowLocation(m, d, id)
			if err != nil {
				return err
			}
			vals[m] = v
		}
		values[i] = vals
		return nil
	})
	if err != nil {
		return err
	}

	// Sequential inserts in (series, measure) order: ties inside a tree keep
	// insertion order, so this fixes the scan order deterministically.
	for i, id := range ids {
		if chosen[id] != nil {
			estimated++
		}
		for _, m := range measures {
			value := values[i][m]
			idx.location[m].Insert(value, seriesEntry{id: id, value: value})
			idx.stats.TotalTreeInsertion++
		}
	}
	idx.stats.LocationEstimated = estimated * len(measures)
	idx.stats.LocationComputed = (len(ids) - estimated) * len(measures)
	return nil
}

// pairLess orders canonical pairs lexicographically.
func pairLess(a, b timeseries.Pair) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// sortedMeasures returns the keys of a measure set in ascending order.
func sortedMeasures(set map[stats.Measure]bool) []stats.Measure {
	out := make([]stats.Measure, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scalarProjection returns ξ = αᵀβ / ‖α‖ for a sequence node under a given
// pivot measure.  A zero ‖α‖ (degenerate pivot) yields ξ = 0, keeping the
// identity value = ‖α‖·ξ = 0 consistent.
func scalarProjection(pm *pivotMeasure, beta [3]float64) float64 {
	if pm.alphaNorm == 0 {
		return 0
	}
	return vec3Dot(pm.alpha, beta) / pm.alphaNorm
}

func vec3Dot(a, b [3]float64) float64 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
}

func vec3Norm(a [3]float64) float64 {
	return math.Sqrt(a[0]*a[0] + a[1]*a[1] + a[2]*a[2])
}
