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
// D-measures are indexed through their base T-measure: the separable
// normalizer U_e of a sequence node is derived at query time from the window's
// per-series statistics, and per pivot node the minimum and maximum normalizer
// among its sequence nodes (U^min_q, U^max_q) drive the index pruning of
// Section 5.3.
//
// Location (L-) measures apply to single series rather than pairs; the index
// keeps one sorted column per L-measure over the series' measure values,
// estimated through an affine relationship (falling back to a direct
// computation for series that only ever appear as the common member).
//
// # Containers
//
// Every epoch's index is immutable: it is derived from the epoch's
// relationship set and window and replaced wholesale by the next, so every
// container is a sorted array and nothing is ever inserted into or deleted
// from one.  A pivot's sequence store is the slice of its sequence nodes in
// canonical pair order — the order symex.Layout hands the pivot's
// relationships over in.  The next epoch's node shares the slice when no
// stale pair is assigned to the pivot and re-derives it from the relationship
// set otherwise.  The per-(pivot, measure) ξ-containers are sorted arrays
// (xiArray) over that store: the ξ keys and, beside them, the permutation of
// canonical ranks that sorts them.  ξ depends on the window, so every epoch
// derives the keys afresh — but the order barely moves between neighbouring
// windows, so a node that shares its store projects in the previous epoch's
// order and only repairs the few inversions (the (ξ, rank) order is total, so
// the repaired array is the array a cold sort produces).  All of an epoch's
// keys, permutations and per-(pivot, measure) headers are carved out of one
// slab each per index.  A location column is the same kind of array, ordered
// by (value, series id), and one routine (keyWindow) maps an interval to the
// index window of matching entries for both.
//
// The pruning bounds (U^min_q, U^max_q) of a D-measure are not part of the
// epoch's construction at all: they are reduced for every pivot, from the
// sequence stores, by the first query of the epoch that prunes by that
// measure, once (a sync.Once per index and D-measure).  A measure nobody asks
// about at an epoch is never bounded.
package scape

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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
	// scans by pivot at query time and to build the pivot nodes (one container
	// set per pivot).  Zero or one runs sequentially.  Pivot nodes are kept in
	// a deterministic (Common, Cluster) order and per-pivot partial results are
	// merged in that order, so query results are byte-identical at any level.
	Parallelism int
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
	pivot symex.Pivot
	// measures[s] is the pivot's state for the index's s-th T-measure
	// (Index.tMeasures), a window of the index's pivotMeasure slab.
	measures []pivotMeasure
	// canon is the pivot's sequence store: its sequence nodes in canonical
	// pair order.  It holds the window-independent payloads every ξ-container
	// of the node is a permutation of, and is the unit of cross-epoch sharing:
	// Update hands the slice on when no stale pair is assigned to the pivot.
	canon []sequenceNode
}

// locationColumn is the index of one L-measure: every series' value in
// ascending order — ties by series id, NaN first, the order of a ξ-container —
// and the series beside it.
type locationColumn struct {
	keys []float64
	ids  []timeseries.SeriesID
}

// fill sorts entries — one per series, its value as the key and its id as the
// rank — into the column.
func (c locationColumn) fill(entries []xiEntry) {
	sortXi(entries)
	for i, e := range entries {
		c.keys[i], c.ids[i] = e.xi, timeseries.SeriesID(e.rank)
	}
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
	opts Options
	// pivots holds one node per pivot with a relationship, in the canonical
	// (Common, Cluster) order.
	pivots []pivotNode
	// tMeasures / dMeasures / lMeasures list the indexed measures of each
	// class in ascending order; per-pivot measure state, the parameter bounds
	// and the center locations are slices aligned with them.
	tMeasures []stats.Measure
	dMeasures []stats.Measure
	lMeasures []stats.Measure
	// bounds[s] holds the pruning bounds of dMeasures[s], reduced on first use.
	bounds []paramBounds
	// location[s] is the global per-series column of lMeasures[s].
	location []locationColumn
	// pairMeasures / derivedSet for quick membership checks.
	pairMeasures map[stats.Measure]bool
	derivedSet   map[stats.Measure]bool
	locationSet  map[stats.Measure]bool
	numSamples   int
	numSeries    int
	// moments is the window's memoised per-series moments; the separable
	// D-measure parameters U_e are computed from them at query time.
	moments *timeseries.Moments
	stats   BuildStats
}

// paramBounds holds (U^min_q, U^max_q) of one D-measure for every pivot node,
// aligned with Index.pivots: the Section 5.3 pruning bounds.  The parameters
// depend on the window's per-series statistics, so the bounds are per epoch;
// they are reduced by the first query that prunes by the measure.
type paramBounds struct {
	once     sync.Once
	perPivot [][2]float64
}

// Stats returns build statistics.
func (idx *Index) Stats() BuildStats { return idx.stats }

// NumPivots returns the number of pivot nodes.
func (idx *Index) NumPivots() int { return len(idx.pivots) }

// baseSlot returns the position of T-measure m in a node's measures, −1 when
// it is not indexed.
func (idx *Index) baseSlot(m stats.Measure) int { return slices.Index(idx.tMeasures, m) }

// findPivot returns the position of a pivot's node, false when it has none.
// hint is where the node sits if the index has the caller's set of nodes —
// the case from one epoch to the next unless a pivot lost or regained its
// last relationship.
func (idx *Index) findPivot(p symex.Pivot, hint int) (int, bool) {
	if hint < len(idx.pivots) && idx.pivots[hint].pivot == p {
		return hint, true
	}
	at := sort.Search(len(idx.pivots), func(i int) bool {
		q := idx.pivots[i].pivot
		return q.Common > p.Common || (q.Common == p.Common && q.Cluster >= p.Cluster)
	})
	return at, at < len(idx.pivots) && idx.pivots[at].pivot == p
}

// Build constructs a SCAPE index from the affine relationships produced by
// SYMEX/SYMEX+ over the given data matrix.
func Build(d *timeseries.DataMatrix, rel *symex.Result, opts Options) (*Index, error) {
	return build(d, rel, opts, opts.Parallelism)
}

// build is Build with the given worker count (Update falling back to a full
// build brings its own).
func build(d *timeseries.DataMatrix, rel *symex.Result, opts Options, parallelism int) (*Index, error) {
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
	idx, err := newIndex(d, opts)
	if err != nil {
		return nil, err
	}
	for _, m := range opts.PairMeasures {
		idx.pairMeasures[m] = true
	}
	for _, m := range opts.DerivedMeasures {
		idx.derivedSet[m] = true
		// A derived measure needs its base T-measure to be indexed.
		idx.pairMeasures[m.Base()] = true
	}
	idx.tMeasures = sortedMeasures(idx.pairMeasures)
	idx.dMeasures = sortedMeasures(idx.derivedSet)

	if _, err := idx.buildNodes(d, rel, nil, nil, parallelism); err != nil {
		return nil, err
	}
	if err := idx.buildLocationColumns(d, rel, parallelism); err != nil {
		return nil, err
	}
	idx.finishStats(rel)
	return idx, nil
}

// newIndex returns an index over d's shape with its L-measures registered
// and no pivot nodes: what Build and BuildLocationOnly start from.
func newIndex(d *timeseries.DataMatrix, opts Options) (*Index, error) {
	for _, m := range opts.LocationMeasures {
		sp, ok := measure.Find(m)
		if !ok || !sp.Location() {
			return nil, fmt.Errorf("%w: %v is not an L-measure", ErrBadQuery, m)
		}
	}
	idx := &Index{
		opts:         opts,
		pairMeasures: make(map[stats.Measure]bool),
		derivedSet:   make(map[stats.Measure]bool),
		locationSet:  make(map[stats.Measure]bool),
		numSamples:   d.NumSamples(),
		numSeries:    d.NumSeries(),
	}
	for _, m := range opts.LocationMeasures {
		idx.locationSet[m] = true
	}
	idx.lMeasures = sortedMeasures(idx.locationSet)
	return idx, nil
}

// finishStats fills the content counters once the nodes and columns are built.
func (idx *Index) finishStats(rel *symex.Result) {
	idx.stats.Pivots = len(idx.pivots)
	idx.stats.SequenceNodes = rel.Len()
	idx.stats.IndexedTMeasures = len(idx.pairMeasures)
	idx.stats.IndexedDMeasures = len(idx.derivedSet)
	idx.stats.IndexedLMeasures = len(idx.locationSet)
	idx.stats.DerivedPruningOn = !idx.opts.DisableDerivedPruning
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

// newSequenceNode builds the window-independent payload of one relationship.
func newSequenceNode(r *symex.Relationship) sequenceNode {
	return sequenceNode{
		pair: r.Pair,
		beta: [3]float64{r.Transform.A[0][1], r.Transform.A[1][1], r.Transform.B[1]},
	}
}

// buildStore derives the sequence store of pivot pi (a position in the
// layout's pivot list) from the relationship set: the layout hands the pivot's
// relationships over in canonical pair order already, one sequence node each.
func buildStore(rel *symex.Result, pi int) []sequenceNode {
	canon := make([]sequenceNode, 0, rel.PivotLen(pi))
	for r := range rel.PivotRelationships(pi) {
		canon = append(canon, newSequenceNode(r))
	}
	return canon
}

// storeDelta reports how a node's sequence store was obtained: shared with
// the previous epoch's node, re-derived next to one (deleted and inserted are
// the stale pairs that left and entered it), or built with no previous node
// to compare with.
type storeDelta struct {
	deleted, inserted          int
	shared, rederived, rebuilt bool
}

// nodeStore returns the sequence store of the node for layout pivot pi.  When
// prev has a node for the pivot and stale (indexed like the layout's pivot
// list) marks none of its pairs, that is the previous node's slice, returned
// with the node's measure state, whose container orders the new epoch
// repairs; in every other case the store is derived from rel.  hint is the
// node's position in the new index.
func nodeStore(rel *symex.Result, pi int, prev *Index, hint int, stale []staleCount) (
	canon []sequenceNode, prevMeasures []pivotMeasure, delta storeDelta, err error) {

	var prevNode *pivotNode
	if prev != nil {
		if at, ok := prev.findPivot(rel.Layout().Pivots()[pi], hint); ok {
			prevNode = &prev.pivots[at]
		}
	}
	if prevNode != nil && stale[pi].pairs == 0 {
		// Nothing but this check notices a stale set that omits a pair Refit
		// pruned or revived.
		if len(prevNode.canon) != rel.PivotLen(pi) {
			return nil, nil, delta, fmt.Errorf("scape: incremental update diverged for pivot %v: store has %d pairs, relationships have %d",
				prevNode.pivot, len(prevNode.canon), rel.PivotLen(pi))
		}
		delta.shared = true
		return prevNode.canon, prevNode.measures, delta, nil
	}
	canon = buildStore(rel, pi)
	if prevNode == nil {
		delta.rebuilt = true
		return canon, nil, delta, nil
	}
	delta.rederived = true
	delta.inserted = int(stale[pi].live)
	delta.deleted = len(prevNode.canon) - (len(canon) - delta.inserted)
	return canon, nil, delta, nil
}

// pivotScratch holds the reusable per-pivot build buffer.  It grows to the
// largest pivot it has served and is recycled through a pool across pivots
// and epochs.
type pivotScratch struct {
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

// nodeWork is what building one pivot node cost, summed into the statistics
// once the (parallel) build is over.
type nodeWork struct {
	storeDelta
	scratchHit bool
}

// buildNodes builds idx.pivots — one node per pivot of rel with a
// relationship — and is the single code path behind Build and Update.  With a
// previous index a pivot's sequence store is shared with that index's node
// when stale marks no pair of the pivot (stale is indexed like the layout's
// pivot list); in every other case — Build, a pivot with a stale pair, a pivot
// the previous index had no node for — it is derived from the relationship
// set.  Everything window-dependent is then derived by finishPivotNode, from
// the same payloads in the same canonical order through the same
// floating-point operations on every route, which is what makes incrementally
// maintained indexes byte-identical to freshly built ones.
//
// The nodes are independent, so contiguous blocks of them are built in
// parallel, each writing its own windows of the index's slabs; queries later
// scan idx.pivots in this same order, which is what makes result ordering
// independent of parallelism.
func (idx *Index) buildNodes(d *timeseries.DataMatrix, rel *symex.Result, prev *Index,
	stale []staleCount, parallelism int) ([]nodeWork, error) {

	idx.moments = d.Moments()
	idx.bounds = make([]paramBounds, len(idx.dMeasures))

	// The pivot terms are the ones W_A propagates through, assembled in one
	// place (symex.Result.PivotTerms); it also checks every pivot's columns.
	terms, err := rel.PivotTerms(d, parallelism)
	if err != nil {
		return nil, err
	}
	pivots := rel.Layout().Pivots()
	pivotOrder := livePivots(rel)
	// offsets[i] is where node i's entries start in the key and rank slabs.
	offsets := make([]int, len(pivotOrder)+1)
	for i, pi := range pivotOrder {
		offsets[i+1] = offsets[i] + rel.PivotLen(pi)
	}
	specs := make([]*measure.Spec, len(idx.tMeasures))
	for s, m := range idx.tMeasures {
		specs[s] = measure.Lookup(m)
	}
	T := len(idx.tMeasures)
	idx.pivots = make([]pivotNode, len(pivotOrder))
	measures := make([]pivotMeasure, T*len(pivotOrder))
	keys := make([]float64, T*offsets[len(pivotOrder)])
	ranks := make([]int32, T*offsets[len(pivotOrder)])
	work := make([]nodeWork, len(pivotOrder))

	err = par.DoBlocks(len(pivotOrder), parallelism, func(_ int, blk par.Block) error {
		for i := blk.Lo; i < blk.Hi; i++ {
			pi := pivotOrder[i]
			node := &idx.pivots[i]
			node.pivot = pivots[pi]
			node.measures = measures[T*i : T*(i+1) : T*(i+1)]
			var prevMeasures []pivotMeasure
			var err error
			node.canon, prevMeasures, work[i].storeDelta, err = nodeStore(rel, pi, prev, i, stale)
			if err != nil {
				return err
			}
			k := len(node.canon)
			at := T * offsets[i]
			work[i].scratchHit = finishPivotNode(node, specs, terms[pi], prevMeasures,
				keys[at:at+T*k:at+T*k], ranks[at:at+T*k:at+T*k])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range work {
		idx.stats.TotalTreeInsertion += T * len(idx.pivots[i].canon)
		idx.stats.ScratchGets++
		if work[i].scratchHit {
			idx.stats.ScratchHits++
		}
	}
	return work, nil
}

// finishPivotNode derives the window-dependent per-(pivot, measure) state of
// a node whose sequence store is in place: α (the first row of
// the measure's augmented second-moment matrix — Observation 1 / Table 2 fall
// out of the algebra), ‖α‖ and the ξ-container — every node projected, sorted
// by (ξ, canonical pair rank), keys and ranks laid out side by side in the
// node's windows of the index slabs.
//
// prevMeasures, when non-nil, is the previous epoch's state of a node over
// the same sequence store: the entries are then projected in last epoch's
// container order, which the new ξ leave nearly sorted, and repaired instead
// of sorted cold.  The order is total, so both routes produce one array.  It
// reports whether the scratch buffer came from the pool.
func finishPivotNode(node *pivotNode, specs []*measure.Spec, terms measure.PivotTerms,
	prevMeasures []pivotMeasure, keys []float64, ranks []int32) (scratchHit bool) {

	sc, scratchHit := getScratch()
	defer putScratch(sc)
	k := len(node.canon)
	for s, sp := range specs {
		pm := &node.measures[s]
		pm.alpha = sp.Moment(terms).Alpha()
		pm.alphaNorm = vec3Norm(pm.alpha)
		entries := sc.entries[:0]
		if prevMeasures != nil {
			for _, rank := range prevMeasures[s].xi.ranks {
				entries = append(entries, xiEntry{xi: scalarProjection(pm, node.canon[rank].beta), rank: rank})
			}
			repairXi(entries)
		} else {
			for rank := range node.canon {
				entries = append(entries, xiEntry{xi: scalarProjection(pm, node.canon[rank].beta), rank: int32(rank)})
			}
			sortXi(entries)
		}
		sc.entries = entries
		pm.xi = xiArray{keys: keys[s*k : (s+1)*k : (s+1)*k], ranks: ranks[s*k : (s+1)*k : (s+1)*k], canon: node.canon}
		for i, e := range entries {
			pm.xi.keys[i] = e.xi
			pm.xi.ranks[i] = e.rank
		}
	}
	return scratchHit
}

// paramBoundsOf returns the pruning bounds of an indexed D-measure, one
// (U^min_q, U^max_q) per pivot node over the node's pairs, reducing them on
// the epoch's first call; nil when the index does not prune.  The reduction
// walks each node's sequence store — a flat loop per pivot.
func (idx *Index) paramBoundsOf(sp *measure.Spec) [][2]float64 {
	slot := slices.Index(idx.dMeasures, sp.ID)
	if slot < 0 || idx.opts.DisableDerivedPruning {
		return nil
	}
	pb := &idx.bounds[slot]
	pb.once.Do(func() {
		perPivot := make([][2]float64, len(idx.pivots))
		// The reduction cannot fail; DoBlocks only fans it out.
		_ = par.DoBlocks(len(idx.pivots), idx.opts.Parallelism, func(_ int, blk par.Block) error {
			for i := blk.Lo; i < blk.Hi; i++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				canon := idx.pivots[i].canon
				for r := range canon {
					e := canon[r].pair
					u := sp.Param(idx.moments.Stat(e.U), idx.moments.Stat(e.V))
					if u < lo {
						lo = u
					}
					if u > hi {
						hi = u
					}
				}
				perPivot[i] = [2]float64{lo, hi}
			}
			return nil
		})
		pb.perPivot = perPivot
	})
	return pb.perPivot
}

// buildLocationColumns estimates every series' L-measures (through an affine
// relationship when the series appears as the non-common member of one,
// directly otherwise) and sorts them into the global location columns.
func (idx *Index) buildLocationColumns(d *timeseries.DataMatrix, rel *symex.Result, parallelism int) error {
	measures := idx.lMeasures
	if len(measures) == 0 {
		return nil
	}
	L := len(measures)
	// Pick, for every series, one relationship in which it is the "other"
	// (non-common) member: the candidate with the smallest canonical pair, so
	// the estimate (and thus the column contents) does not depend on the order
	// the relationships are stored in.
	chosen := make([]*symex.Relationship, d.NumSeries())
	for r := range rel.All() {
		if cur := chosen[r.Other()]; cur == nil || pairLess(r.Pair, cur.Pair) {
			chosen[r.Other()] = r
		}
	}

	// An estimate reads the locations of its pivot's two columns.  A center's
	// are memoised on the clustering it is frozen with; window series are
	// reduced once per epoch each, below.
	centers := make([][]float64, L)
	for s, m := range measures {
		locs, err := rel.Clustering.CenterLocations(m)
		if err != nil {
			return err
		}
		centers[s] = locs
	}
	ids := d.IDs()
	direct := make([]bool, len(ids)) // series whose own L-measures are read
	estimated := 0
	for _, id := range ids {
		r := chosen[id]
		if r == nil {
			direct[id] = true
			continue
		}
		estimated++
		if _, _, err := rel.PivotColumns(d, r.Pivot); err != nil {
			return err
		}
		direct[r.Pivot.Common] = true
	}

	// L-measures of the window's series: order statistics read the sorted
	// column (slid, not re-sorted, from epoch to epoch), bit-identical to
	// reducing the raw column.
	own := make([]float64, L*len(ids))
	err := par.Do(len(ids), parallelism, func(i int) error {
		if !direct[ids[i]] {
			return nil
		}
		for s, m := range measures {
			v, err := stats.WindowLocation(m, d, ids[i])
			if err != nil {
				return err
			}
			own[L*i+s] = v
		}
		return nil
	})
	if err != nil {
		return err
	}

	// One column per measure, in the ξ-container order with the series id as
	// the rank: ascending value, equal values by id (what id-ordered inserts
	// into a tie-stable tree produce), NaN first.
	n := len(ids)
	idx.location = make([]locationColumn, L)
	keys := make([]float64, L*n)
	sorted := make([]timeseries.SeriesID, L*n)
	entries := make([]xiEntry, n)
	for s := range measures {
		for i, id := range ids {
			value := own[L*i+s]
			if r := chosen[id]; r != nil {
				// L(other) = L(O_p)ᵀ·a2 + b2  (second component of Eq. 5).
				value = r.Transform.PropagateLocation([2]float64{
					own[L*int(r.Pivot.Common)+s], centers[s][r.Pivot.Cluster]})[1]
			}
			entries[i] = xiEntry{xi: value, rank: int32(id)}
		}
		idx.location[s] = locationColumn{keys: keys[s*n : (s+1)*n], ids: sorted[s*n : (s+1)*n]}
		idx.location[s].fill(entries)
		idx.stats.TotalTreeInsertion += n
	}
	idx.stats.LocationEstimated = estimated * L
	idx.stats.LocationComputed = (len(ids) - estimated) * L
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
	slices.Sort(out)
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
