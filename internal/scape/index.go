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
// normalizer U_e of a sequence node is derived from the window's per-series
// statistics, and the measure's value of every entry of the base ξ-container,
// ‖α‖·ξ put through the spec's transform with that normalizer, is read from a
// per-epoch value column, and a scan tests each entry's value.  The paper's
// per-pivot normalizer bounds (U^min_q, U^max_q) of Section 5.3, which pruned
// by inverting the transform, are not needed once every value is in hand.
//
// Location (L-) measures apply to single series rather than pairs; the index
// can serve one sorted column per L-measure over the series' measure values,
// estimated through an affine relationship (falling back to a direct
// computation for series that only ever appear as the common member).
//
// # Containers
//
// Every epoch's index is immutable while anyone can read it: it is derived
// from the epoch's relationship set and window, and the next epoch gets an
// index of its own, so every container is a sorted array and nothing is ever
// inserted into or deleted from one.  Once an epoch is retired and its last
// reader has left, the engine may hand its index to a later Update to build
// into (UpdateOptions.Recycle): the slabs are overwritten whole, never
// edited.  A pivot's sequence store is the slice of its sequence nodes in
// canonical pair order — the order symex.Layout hands the pivot's
// relationships over in.  The next epoch's node shares the slice when no
// stale pair is assigned to the pivot and re-derives it from the relationship
// set otherwise.  Sharing a store pins the index it came from: the store slab
// of an index a cold Update built is written again only while no later index
// shares a store of it.  The per-(pivot, measure) ξ-containers are sorted arrays
// (xiArray) over that store: the ξ keys and, beside them, the permutation of
// canonical ranks that sorts them.  ξ depends on the window, so every epoch
// derives the keys afresh — but the order barely moves between neighbouring
// windows, so an Update projects every node the previous epoch had a node for
// in that node's order and only repairs the few inversions, whether the store
// was shared, re-derived or, on a full refit, built cold (the (ξ, rank) order
// is total, so the repaired array is the array a cold sort produces).  All of
// an epoch's keys, permutations and per-(pivot, measure) headers are carved
// out of one slab each per index, a recycled index's where one is given.  A
// location column is the same kind of array, ordered by (value, series id),
// and one routine (keyWindow) maps an interval to the index window of
// matching entries for both.
//
// Neither the value column of a D-measure nor the location column of an
// L-measure is part of the epoch's construction.  A value column — one value
// per entry in container order, NaN where the measure is undefined, beside
// each node's extremes over its defined values — and a location column are
// filled by the first interval scan, batch, top-k or selectivity count of the
// epoch that names the measure, once (a sync.Once per index and measure); a
// measure nobody asks about at an epoch is never evaluated.  So an index
// whose epochs are never asked for a median or a mode never sorts a window:
// the order statistics read the window's sorted columns, which exist only
// once such a fill has asked for them (timeseries.DataMatrix.EvalSorted).
package scape

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/par"
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
	PairMeasures []measure.Measure
	// DerivedMeasures lists the D-measures the index answers: each gets a
	// per-epoch value column, filled on first use.  Nil selects every
	// D-measure with a separable normalizer.
	DerivedMeasures []measure.Measure
	// LocationMeasures lists the L-measures the index can serve over
	// individual series: each gets a per-epoch location column, filled on
	// first use.  Nil selects mean, median and mode.
	LocationMeasures []measure.Measure
	// Parallelism is the number of goroutines used to shard threshold/range
	// scans by pivot at query time, to build the pivot nodes (one container
	// set per pivot) and to fill value columns.  Zero or one runs
	// sequentially.  Pivot nodes are kept in a deterministic (Common, Cluster)
	// order and per-pivot partial results are merged in that order, so query
	// results are byte-identical at any level.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.PairMeasures == nil {
		o.PairMeasures = measure.ByClass(measure.DispersionClass)
	}
	if o.DerivedMeasures == nil {
		o.DerivedMeasures = SeparableDerivedMeasures()
	}
	if o.LocationMeasures == nil {
		o.LocationMeasures = measure.ByClass(measure.LocationClass)
	}
	return o
}

// SeparableDerivedMeasures returns the D-measures the index can serve: those
// whose spec declares a separable parameter with a monotone value transform
// (Section 5.1, "Indexing D-Measures", generalized to decreasing
// transforms).  The generalized Jaccard coefficient declares itself
// non-indexable: its transform has a pole inside the reachable base range.
func SeparableDerivedMeasures() []measure.Measure {
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
// and the series beside it.  The values depend on the window, so the column is
// per epoch; it is filled by the first query or count that names the measure,
// and a failed fill leaves its error for every later one.
type locationColumn struct {
	once sync.Once
	keys []float64
	ids  []timeseries.SeriesID
	err  error
}

// fill sorts entries — one per series, its value as the key and its id as the
// rank — into the column.
func (c *locationColumn) fill(entries []xiEntry) {
	sortXi(entries)
	c.keys = make([]float64, len(entries))
	c.ids = make([]timeseries.SeriesID, len(entries))
	for i, e := range entries {
		c.keys[i], c.ids[i] = e.xi, timeseries.SeriesID(e.rank)
	}
}

// BuildStats summarizes the index contents.
type BuildStats struct {
	Pivots           int
	SequenceNodes    int
	IndexedTMeasures int
	IndexedDMeasures int
	IndexedLMeasures int
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
	// class in ascending order; per-pivot measure state, the value columns
	// and the center locations are slices aligned with them.
	tMeasures []measure.Measure
	dMeasures []measure.Measure
	lMeasures []measure.Measure
	// offsets[i] is where node i's entries start in every value column (node
	// i holds offsets[i+1] − offsets[i] entries under every measure).
	offsets []int
	// columns[s] is the value column of dMeasures[s], filled on first use.
	columns []valueColumn
	// location[s] is the global per-series column of lMeasures[s], filled on
	// first use from data and rel: the epoch's window and relationship set,
	// which whoever holds the index holds for the same epoch anyway.
	location []locationColumn
	data     *timeseries.DataMatrix
	rel      *symex.Result
	// pairMeasures / derivedSet for quick membership checks.
	pairMeasures map[measure.Measure]bool
	derivedSet   map[measure.Measure]bool
	locationSet  map[measure.Measure]bool
	numSamples   int
	numSeries    int
	// moments is the window's memoised per-series moments; the separable
	// D-measure parameters U_e are computed from them at query time.
	moments *timeseries.Moments
	stats   BuildStats
	// slab holds the backing arrays the nodes' measure states and
	// ξ-containers are windows of: with idx.pivots, idx.offsets and the value
	// columns, what an Update recycling this index builds into
	// (UpdateOptions.Recycle).  stores backs every node's sequence store when
	// a cold Update built the index, and is nil otherwise; it is written again
	// only while the index is not pinned.
	slab struct {
		measures []pivotMeasure
		keys     []float64
		ranks    []int32
		stores   []sequenceNode
	}
	// pinned marks an index a later index shares a sequence store with.
	pinned atomic.Bool
}

// noDonor stands in for a missing donor: it has nothing to build into.
var noDonor Index

// reuse returns s resized to n when its capacity allows, a new slice
// otherwise.  A reused slice keeps its old contents: callers overwrite every
// element.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// valueColumn holds one D-measure's value of every entry of the index, node
// by node (Index.offsets) and, within a node, in the order of the node's base
// ξ-container; NaN marks an entry whose value is undefined.  extremes[i] is
// the smallest and largest defined value of node i, (+Inf, −Inf) when it has
// none.  The values depend on the window, so the column is per epoch; it is
// filled by the first scan, top-k or count that names the measure.
type valueColumn struct {
	once     sync.Once
	values   []float64
	extremes [][2]float64
}

// misses reports whether no value of the closed range [lo, hi] lies in iv:
// the range is empty, ends below iv's low end or starts above its high end.
func misses(iv interval.Interval, lo, hi float64) bool {
	return lo > hi ||
		!iv.Lo.Unbounded && (hi < iv.Lo.Value || hi == iv.Lo.Value && iv.Lo.Open) ||
		!iv.Hi.Unbounded && (lo > iv.Hi.Value || lo == iv.Hi.Value && iv.Hi.Open)
}

// Stats returns build statistics.
func (idx *Index) Stats() BuildStats { return idx.stats }

// NumPivots returns the number of pivot nodes.
func (idx *Index) NumPivots() int { return len(idx.pivots) }

// Measures returns every measure the index answers interval and top-k
// queries for — its T-, D- and L-measures — in ascending order.
func (idx *Index) Measures() []measure.Measure {
	out := slices.Concat(idx.tMeasures, idx.dMeasures, idx.lMeasures)
	slices.Sort(out)
	return out
}

// baseSlot returns the position of T-measure m in a node's measures, −1 when
// it is not indexed.
func (idx *Index) baseSlot(m measure.Measure) int { return slices.Index(idx.tMeasures, m) }

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
	return build(d, rel, opts, opts.Parallelism, nil, nil)
}

// build is Build with the given worker count and, when non-nil, the previous
// epoch's index, whose container orders the new ones are repaired from, and a
// retired index to build into (Update building cold brings all three, its
// donor noDonor when it has none to recycle).
func build(d *timeseries.DataMatrix, rel *symex.Result, opts Options, parallelism int, prev, donor *Index) (*Index, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	// An index without L-measures may be empty: it answers no pair, like an
	// engine without relationships.
	if rel == nil || rel.Len() == 0 && len(opts.LocationMeasures) > 0 {
		return nil, fmt.Errorf("scape: no affine relationships to index")
	}
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
	idx, err := newIndex(d, rel, opts)
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

	if _, err := idx.buildNodes(d, rel, prev, nil, parallelism, donor); err != nil {
		return nil, err
	}
	idx.finishStats(rel)
	return idx, nil
}

// newIndex returns an index over d's shape with its L-measures registered,
// their columns unfilled, and no pivot nodes: what Build and
// BuildLocationOnly start from.
func newIndex(d *timeseries.DataMatrix, rel *symex.Result, opts Options) (*Index, error) {
	for _, m := range opts.LocationMeasures {
		sp, ok := measure.Find(m)
		if !ok || !sp.Location() {
			return nil, fmt.Errorf("%w: %v is not an L-measure", ErrBadQuery, m)
		}
	}
	idx := &Index{
		opts:         opts,
		pairMeasures: make(map[measure.Measure]bool),
		derivedSet:   make(map[measure.Measure]bool),
		locationSet:  make(map[measure.Measure]bool),
		numSamples:   d.NumSamples(),
		numSeries:    d.NumSeries(),
		data:         d,
		rel:          rel,
	}
	for _, m := range opts.LocationMeasures {
		idx.locationSet[m] = true
	}
	idx.lMeasures = sortedMeasures(idx.locationSet)
	idx.location = make([]locationColumn, len(idx.lMeasures))
	return idx, nil
}

// finishStats fills the content counters once the nodes and columns are built.
func (idx *Index) finishStats(rel *symex.Result) {
	idx.stats.Pivots = len(idx.pivots)
	idx.stats.SequenceNodes = rel.Len()
	idx.stats.IndexedTMeasures = len(idx.pairMeasures)
	idx.stats.IndexedDMeasures = len(idx.derivedSet)
	idx.stats.IndexedLMeasures = len(idx.locationSet)
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
// The store is written into dst, the pivot's window of a store slab, or into
// a slice of its own when dst is nil.
func buildStore(rel *symex.Result, pi int, dst []sequenceNode) []sequenceNode {
	canon := dst[:0]
	if dst == nil {
		canon = make([]sequenceNode, 0, rel.PivotLen(pi))
	}
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

// nodeStore returns the sequence store of the node for layout pivot pi and,
// when prev has a node for the pivot, that node's measure state, whose
// container orders the new epoch repairs.  When stale (the stale pairs of
// each layout pivot; nil shares nothing) counts none of the pivot's pairs,
// the store is the previous node's slice and prev is pinned; in every other
// case it is derived from rel, into dst when it is not nil (buildStore).
// hint is the node's position in the new index.
func nodeStore(rel *symex.Result, pi int, prev *Index, hint int, stale []int32, dst []sequenceNode) (
	canon []sequenceNode, prevMeasures []pivotMeasure, delta storeDelta, err error) {

	var prevNode *pivotNode
	if prev != nil {
		if at, ok := prev.findPivot(rel.Layout().Pivots()[pi], hint); ok {
			prevNode = &prev.pivots[at]
		}
	}
	if prevNode != nil && stale != nil && stale[pi] == 0 {
		// Nothing but this check notices a previous index over another
		// relationship layout.
		if len(prevNode.canon) != rel.PivotLen(pi) {
			return nil, nil, delta, fmt.Errorf("scape: incremental update diverged for pivot %v: store has %d pairs, relationships have %d",
				prevNode.pivot, len(prevNode.canon), rel.PivotLen(pi))
		}
		delta.shared = true
		prev.pinned.Store(true)
		return prevNode.canon, prevNode.measures, delta, nil
	}
	canon = buildStore(rel, pi, dst)
	switch {
	case prevNode == nil:
		delta.rebuilt = true
		return canon, nil, delta, nil
	case stale == nil:
		delta.rebuilt = true
	default:
		delta.rederived = true
		delta.inserted = int(stale[pi])
		delta.deleted = len(prevNode.canon) - (len(canon) - delta.inserted)
	}
	return canon, prevNode.measures, delta, nil
}

// pivotScratch holds the reusable per-pivot build buffer.  It grows to the
// largest pivot it has served and is recycled through a pool across pivots
// and epochs.
type pivotScratch struct {
	entries []xiEntry
}

var pivotScratchPool par.Scratch[pivotScratch]

// nodeWork is what building one pivot node cost, summed into the statistics
// once the (parallel) build is over.
type nodeWork struct {
	storeDelta
	scratchHit bool
}

// nodeScratch is a build's per-pivot bookkeeping — what each node cost —
// recycled through a pool across builds, since nothing of it outlives the
// build.
type nodeScratch struct {
	work []nodeWork
}

var nodeScratchPool par.Scratch[nodeScratch]

// buildNodes builds idx.pivots — node i for layout pivot i, every one of
// which has a relationship — and is the single code path behind Build and
// Update.  With a previous index and a stale set (indexed like the layout's
// pivot list) a pivot's sequence store is shared with that index's node when
// stale marks no pair of the pivot; in every other case — Build, a nil stale
// set, a pivot with a stale pair, a pivot the previous index had no node for
// — it is derived from the relationship set.  Everything window-dependent is
// then derived by finishPivotNode, from the same payloads in the same
// canonical order through the same floating-point operations on every route,
// with the previous index's node for the pivot, where there is one, as the
// order its containers are repaired from; that is what makes incrementally
// maintained indexes byte-identical to freshly built ones.
//
// The nodes are independent, so contiguous blocks of them are built in
// parallel, each writing its own windows of the index's slabs; queries later
// scan idx.pivots in this same order, which is what makes result ordering
// independent of parallelism.
//
// With a donor — a retired index no reader can reach — the slabs, the
// offsets and the value columns are carved out of the donor's wherever they
// fit, which they do unless a pivot gained relationships.  Every element of
// them is overwritten below or, for a value column, by its fill, so a
// recycled slab holds exactly what a fresh one would.  A cold build with a
// donor (an Update with no prev; noDonor when it has nothing to recycle) also
// carves every sequence store out of one store slab: the donor's when the
// donor is not pinned — no later index shares a store of it — and a new one
// otherwise.  Build, and an Update that shares stores, allocate the stores
// they derive one by one, since later epochs may share each of them.
//
// It returns the store counts of UpdateStats: how each node's sequence store
// was obtained.
func (idx *Index) buildNodes(d *timeseries.DataMatrix, rel *symex.Result, prev *Index,
	stale []int32, parallelism int, donor *Index) (UpdateStats, error) {

	slabbed := stale == nil && donor != nil
	if donor == nil {
		donor = &noDonor
	}
	idx.moments = d.Moments()
	// A reused column keeps the donor's values as the capacity its fill writes
	// into; the reset Once makes the column unfilled.
	idx.columns = reuse(donor.columns, len(idx.dMeasures))
	for s := range idx.columns {
		col := &idx.columns[s]
		*col = valueColumn{values: col.values, extremes: col.extremes}
	}

	// The pivot terms are the ones W_A propagates through, assembled in one
	// place (symex.Result.PivotTerms); it also checks every pivot's columns.
	var us UpdateStats
	terms, err := rel.PivotTerms(d, parallelism)
	if err != nil {
		return us, err
	}
	sc, _ := nodeScratchPool.Get()
	defer nodeScratchPool.Put(sc)
	pivots := rel.Layout().Pivots()
	// offsets[i] is where node i's entries start in the key and rank slabs
	// (times the T-measure count) and in every value column.
	offsets := reuse(donor.offsets, len(pivots)+1)
	offsets[0] = 0
	for pi := range pivots {
		offsets[pi+1] = offsets[pi] + rel.PivotLen(pi)
	}
	idx.offsets = offsets
	specs := make([]*measure.Spec, len(idx.tMeasures))
	for s, m := range idx.tMeasures {
		specs[s] = measure.Lookup(m)
	}
	T := len(idx.tMeasures)
	idx.pivots = reuse(donor.pivots, len(pivots))
	measures := reuse(donor.slab.measures, T*len(pivots))
	keys := reuse(donor.slab.keys, T*offsets[len(pivots)])
	ranks := reuse(donor.slab.ranks, T*offsets[len(pivots)])
	work := reuse(sc.work, len(pivots))
	sc.work = work
	idx.slab.measures, idx.slab.keys, idx.slab.ranks = measures, keys, ranks
	if slabbed {
		var stores []sequenceNode
		if !donor.pinned.Load() {
			stores = donor.slab.stores
		}
		idx.slab.stores = reuse(stores, offsets[len(pivots)])
	}

	err = par.DoBlocks(len(pivots), parallelism, func(_ int, blk par.Block) error {
		for pi := blk.Lo; pi < blk.Hi; pi++ {
			node := &idx.pivots[pi]
			node.pivot = pivots[pi]
			node.measures = measures[T*pi : T*(pi+1) : T*(pi+1)]
			var prevMeasures []pivotMeasure
			var dst []sequenceNode
			if idx.slab.stores != nil {
				dst = idx.slab.stores[offsets[pi]:offsets[pi+1]:offsets[pi+1]]
			}
			var err error
			node.canon, prevMeasures, work[pi].storeDelta, err = nodeStore(rel, pi, prev, pi, stale, dst)
			if err != nil {
				return err
			}
			k := len(node.canon)
			at := T * offsets[pi]
			work[pi].scratchHit = finishPivotNode(node, specs, terms[pi], prevMeasures,
				keys[at:at+T*k:at+T*k], ranks[at:at+T*k:at+T*k])
		}
		return nil
	})
	if err != nil {
		return us, err
	}
	for _, w := range work {
		idx.stats.ScratchGets++
		if w.scratchHit {
			idx.stats.ScratchHits++
		}
		us.EntriesDeleted += w.deleted
		us.EntriesInserted += w.inserted
		switch {
		case w.shared:
			us.StoresShared++
		case w.rederived:
			us.StoresCloned++
		case w.rebuilt:
			us.StoresRebuilt++
		}
	}
	return us, nil
}

// finishPivotNode derives the window-dependent per-(pivot, measure) state of
// a node whose sequence store is in place: α (the first row of
// the measure's augmented second-moment matrix — Observation 1 / Table 2 fall
// out of the algebra), ‖α‖ and the ξ-container — every node projected, sorted
// by (ξ, canonical pair rank), keys and ranks laid out side by side in the
// node's windows of the index slabs.
//
// prevMeasures, when non-nil, is the previous epoch's state of the node for
// the same pivot: a container of it that holds as many entries as the new one
// holds a permutation of the same canonical ranks, so the entries are then
// projected in last epoch's container order, which the new ξ leave nearly
// sorted, and repaired instead of sorted cold (repairXi sorts cold by itself
// once the order turns out to tell little).  The order is total, so both
// routes produce one array.  It reports whether the scratch buffer came from
// the pool.
func finishPivotNode(node *pivotNode, specs []*measure.Spec, terms measure.PivotTerms,
	prevMeasures []pivotMeasure, keys []float64, ranks []int32) (scratchHit bool) {

	sc, scratchHit := pivotScratchPool.Get()
	defer pivotScratchPool.Put(sc)
	k := len(node.canon)
	for s, sp := range specs {
		pm := &node.measures[s]
		pm.alpha = sp.Moment(terms).Alpha()
		pm.alphaNorm = vec3Norm(pm.alpha)
		entries := sc.entries[:0]
		if s < len(prevMeasures) && len(prevMeasures[s].xi.ranks) == k {
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

// columnOf returns the value column of an indexed D-measure, filling it on
// the epoch's first call, blocks of nodes in parallel.  Per node the
// separable parameter is evaluated once per entry of the canonical store,
// walking it in order, and the transform once per entry of the base
// ξ-container, in container order, reading its entry's parameter through the
// container's ranks.
func (idx *Index) columnOf(sp *measure.Spec) *valueColumn {
	col := &idx.columns[slices.Index(idx.dMeasures, sp.ID)]
	col.once.Do(func() {
		base := idx.baseSlot(sp.Base)
		values := reuse(col.values, idx.offsets[len(idx.pivots)])
		extremes := reuse(col.extremes, len(idx.pivots))
		// The evaluation cannot fail; DoBlocks only fans it out.
		_ = par.DoBlocks(len(idx.pivots), idx.opts.Parallelism, func(_ int, blk par.Block) error {
			var params []float64
			for i := blk.Lo; i < blk.Hi; i++ {
				canon := idx.pivots[i].canon
				params = params[:0]
				for r := range canon {
					e := canon[r].pair
					params = append(params, sp.Param(idx.moments.Stat(e.U), idx.moments.Stat(e.V)))
				}
				pm := &idx.pivots[i].measures[base]
				node := values[idx.offsets[i]:idx.offsets[i+1]]
				lo, hi := math.Inf(1), math.Inf(-1)
				for j, xi := range pm.xi.keys {
					v := idx.derivedValue(pm, sp, xi, params[pm.xi.ranks[j]])
					node[j] = v
					// No comparison with NaN holds: undefined values bound nothing.
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				extremes[i] = [2]float64{lo, hi}
			}
			return nil
		})
		col.values, col.extremes = values, extremes
	})
	return col
}

// nodeValues returns node i's window of a value column.
func (idx *Index) nodeValues(col *valueColumn, i int) []float64 {
	return col.values[idx.offsets[i]:idx.offsets[i+1]]
}

// derivedValue computes the exact derived measure of a sequence node from
// index-resident quantities: the spec transform of ‖α‖·ξ with the node's
// separable parameter u, derived from the window's per-series statistics; NaN
// when the measure is undefined for the pair.
func (idx *Index) derivedValue(pm *pivotMeasure, sp *measure.Spec, xi, u float64) float64 {
	v, err := sp.Value(pm.alphaNorm*xi, u, idx.numSamples)
	if err != nil {
		return math.NaN()
	}
	return v
}

// locationOf returns the epoch's column of an indexed L-measure, filling it
// on the epoch's first call, and whether this call filled it.  It is the one
// place a location column is filled.
func (idx *Index) locationOf(m measure.Measure) (col *locationColumn, filled bool, err error) {
	s := slices.Index(idx.lMeasures, m)
	if s < 0 {
		return nil, false, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, m)
	}
	col = &idx.location[s]
	col.once.Do(func() {
		filled = true
		col.err = idx.fillLocation(col, m)
	})
	if col.err != nil {
		return nil, filled, col.err
	}
	return col, filled, nil
}

// FillLocation fills the epoch's column of L-measure m unless an earlier call
// or query has, and reports whether this call filled it.  Queries fill the
// column themselves; Explain calls it first, to report whether the query it
// explains paid for the fill.
func (idx *Index) FillLocation(m measure.Measure) (filled bool, err error) {
	_, filled, err = idx.locationOf(m)
	return filled, err
}

// fillLocation estimates L-measure m of every series — through an affine
// relationship when the series appears as the non-common member of one,
// directly otherwise — and sorts the values into col.
func (idx *Index) fillLocation(col *locationColumn, m measure.Measure) error {
	d, rel := idx.data, idx.rel
	// An estimate reads the locations of its pivot's two columns.  A center's
	// are memoised on the clustering it is frozen with; window series are
	// reduced below.
	centers, err := rel.Clustering.CenterLocations(m)
	if err != nil {
		return err
	}
	// Pick, for every series, one relationship in which it is the "other"
	// (non-common) member: the candidate with the smallest canonical pair, so
	// the estimate (and thus the column contents) does not depend on the order
	// the relationships are stored in.  Series v's pairs in canonical order
	// are (u, v) for u < v, then (v, u) for u > v, so it is the first found by
	// ascending u — a few lookups for most series, where a walk of the whole
	// relationship set would touch every relationship.
	chosen := make([]*symex.Relationship, d.NumSeries())
	for v := range chosen {
		for u := range chosen {
			if u == v {
				continue
			}
			e, _ := timeseries.NewPair(timeseries.SeriesID(u), timeseries.SeriesID(v))
			if r, ok := rel.Relationship(e); ok && int(r.Other()) == v {
				chosen[v] = r
				break
			}
		}
	}
	ids := d.IDs()
	direct := make([]bool, len(ids)) // series whose own L-measure is read
	for _, id := range ids {
		r := chosen[id]
		if r == nil {
			direct[id] = true
			continue
		}
		if _, _, err := rel.PivotColumns(d, r.Pivot); err != nil {
			return err
		}
		direct[r.Pivot.Common] = true
	}

	// The L-measure of the window's series: an order statistic reads the
	// window's sorted column (slid, not re-sorted, from epoch to epoch once a
	// fill has asked for it), bit-identical to reducing the raw column.
	own := make([]float64, len(ids))
	err = par.Do(len(ids), idx.opts.Parallelism, func(i int) error {
		if !direct[ids[i]] {
			return nil
		}
		v, err := d.Location(m, ids[i])
		own[i] = v
		return err
	})
	if err != nil {
		return err
	}

	// The column is in the ξ-container order with the series id as the rank:
	// ascending value, equal values by id (what id-ordered inserts into a
	// tie-stable tree produce), NaN first.
	entries := make([]xiEntry, len(ids))
	for i, id := range ids {
		value := own[i]
		if r := chosen[id]; r != nil {
			// L(other) = L(O_p)ᵀ·a2 + b2  (second component of Eq. 5).
			value = r.Transform.PropagateLocation([2]float64{
				own[r.Pivot.Common], centers[r.Pivot.Cluster]})[1]
		}
		entries[i] = xiEntry{xi: value, rank: int32(id)}
	}
	col.fill(entries)
	return nil
}

// sortedMeasures returns the keys of a measure set in ascending order.
func sortedMeasures(set map[measure.Measure]bool) []measure.Measure {
	out := make([]measure.Measure, 0, len(set))
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
