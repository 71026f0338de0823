package symex

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"affinity/internal/cluster"
	"affinity/internal/kernel"
	"affinity/internal/mat"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// Layout is the frozen half of a Result: the pair→pivot assignment list the
// exploration produced, plus the indexes every consumer used to rebuild by
// hashing — pair→slot, slot→pivot and each pivot's slots.  A slot is a
// position in the assignment list.  The assignment depends only on n and the
// clustering, so a layout is built once per clustering and every epoch's
// Result shares it by pointer; nothing in it is ever mutated but the memo of
// the latest window's reductions (windowMemo).  The pair→slot index is dense:
// 4 B for each of the n(n−1)/2 pairs, assigned or not, so a layout (the global
// one and each shard's restriction alike) costs O(n²).
type Layout struct {
	assignments []Assignment
	n           int     // series count; pairs index the strict upper triangle
	slotOf      []int32 // triangular pair index → slot, −1 without assignment
	pivots      []Pivot // distinct assigned pivots in canonical order
	pivotOf     []int32 // slot → index into pivots
	// byPivot lists the slots grouped by pivot, each group in canonical pair
	// order; pivot i's group is byPivot[pivotStart[i]:pivotStart[i+1]].
	byPivot    []int32
	pivotStart []int32

	memo atomic.Pointer[windowMemo]
}

// windowMemo holds what one window reduces against a layout's pivots and a
// clustering: the pivot terms and the series-versus-own-centre covariances,
// both out of one cross pass (reduceCrossMoments).  An epoch asks for them
// several times — the engine's summaries, drift scoring and calibration, the
// fits, the index — and every ask after the first reads the memo, so the pass
// runs once per window and engine.  The key is the window's own memo object (a
// mutated window drops it, so a stale entry can never match) and the
// clustering; the layout keeps the latest window's entry only, which is what
// an Advance, the Refit inside it and the index update after it all share.
type windowMemo struct {
	window     *timeseries.Moments
	clustering *cluster.Result

	once      sync.Once
	terms     []measure.PivotTerms
	termsErr  error
	centerCov []float64
	covErr    error
}

// memoFor returns the layout's memo entry for window d and the clustering,
// replacing the entry of any other window.
func (l *Layout) memoFor(d *timeseries.DataMatrix, clustering *cluster.Result) *windowMemo {
	window := d.Moments()
	for {
		w := l.memo.Load()
		if w != nil && w.window == window && w.clustering == clustering {
			return w
		}
		next := &windowMemo{window: window, clustering: clustering}
		if l.memo.CompareAndSwap(w, next) {
			return next
		}
	}
}

// reduced returns the layout's memo entry for window d and the clustering,
// running the window's cross pass if no one asked for it yet.
func (l *Layout) reduced(d *timeseries.DataMatrix, clustering *cluster.Result, parallelism int) *windowMemo {
	w := l.memoFor(d, clustering)
	w.once.Do(func() {
		reductions.Add(1)
		w.terms, w.termsErr, w.centerCov, w.covErr = reduceCrossMoments(d, l.pivots, clustering, parallelism)
	})
	return w
}

// reductions counts the cross passes windowMemo runs.  Nothing reads it but
// a test that runs alone and pins "once per window and engine" on the deltas.
var reductions atomic.Int64

// NewLayout indexes an assignment list over n series.  It rejects a pair
// outside the series, a pivot whose common series is not a member of its
// pair or a negative cluster, a pair assigned twice, and more series than
// int32 can number pairs of.  The pivot index is a dense table of
// n·(largest cluster + 1) entries, so the clusters should be a clustering's
// [0, k) — Compute and the snapshot decoder check that before they call it.
// A pivot naming a cluster the clustering does not have is otherwise indexed
// like any other; the fit or the sweep that reads its centre reports it.
func NewLayout(n int, assignments []Assignment) (*Layout, error) {
	if err := checkSeriesCount(n); err != nil {
		return nil, err
	}
	l := &Layout{
		assignments: assignments,
		n:           n,
		slotOf:      make([]int32, n*(n-1)/2),
		pivotOf:     make([]int32, len(assignments)),
	}
	for i := range l.slotOf {
		l.slotOf[i] = -1
	}
	// The pivot index is dense: one entry per (common series, cluster), keyed
	// common·k + cluster, where k is the largest cluster named + 1.
	// Ascending keys are the canonical (Common, Cluster) order — the one total
	// order every consumer walks pivots in, so that work distribution and
	// error selection under the parallel helpers are deterministic.
	k := 0
	for _, a := range assignments {
		k = max(k, a.Pivot.Cluster+1)
	}
	key := func(p Pivot) int { return int(p.Common)*k + p.Cluster }
	pivotIndex := make([]int32, n*k)
	for i := range pivotIndex {
		pivotIndex[i] = -1
	}
	for slot, a := range assignments {
		if !a.Pair.Valid() || int(a.Pair.V) >= n || !a.Pair.Contains(a.Pivot.Common) || a.Pivot.Cluster < 0 {
			return nil, fmt.Errorf("symex: invalid assignment %v → %v for %d series", a.Pair, a.Pivot, n)
		}
		at := triIndex(n, a.Pair)
		if l.slotOf[at] >= 0 {
			return nil, fmt.Errorf("symex: pair %v assigned twice", a.Pair)
		}
		l.slotOf[at] = int32(slot)
		pivotIndex[key(a.Pivot)] = 0
	}
	for i, seen := range pivotIndex {
		if seen == 0 {
			pivotIndex[i] = int32(len(l.pivots))
			l.pivots = append(l.pivots, Pivot{Common: timeseries.SeriesID(i / k), Cluster: i % k})
		}
	}
	for slot, a := range assignments {
		l.pivotOf[slot] = pivotIndex[key(a.Pivot)]
	}
	// The triangular index ascends in canonical pair order, so bucketing the
	// slots in its order leaves every pivot's group sorted that way.
	ordered := make([]int32, 0, len(assignments))
	for _, slot := range l.slotOf {
		if slot >= 0 {
			ordered = append(ordered, slot)
		}
	}
	l.byPivot, l.pivotStart = l.bucket(ordered)
	return l, nil
}

// bucket groups the given slots by pivot, keeping their order inside every
// group: pivot i's group is members[start[i]:start[i+1]].
func (l *Layout) bucket(slots []int32) (members, start []int32) {
	start = make([]int32, len(l.pivots)+1)
	for _, slot := range slots {
		start[l.pivotOf[slot]+1]++
	}
	for i := range l.pivots {
		start[i+1] += start[i]
	}
	next := slices.Clone(start[:len(l.pivots)])
	members = make([]int32, len(slots))
	for _, slot := range slots {
		pi := l.pivotOf[slot]
		members[next[pi]] = slot
		next[pi]++
	}
	return members, start
}

// triIndex maps a canonical pair over n series to its position in the strict
// upper triangle of the n×n pair grid, row by row — ascending in (U, V) order.
func triIndex(n int, e timeseries.Pair) int {
	u, v := int(e.U), int(e.V)
	return u*(2*n-u-1)/2 + v - u - 1
}

// Assignments returns the frozen assignment list; slot i is Assignments()[i].
func (l *Layout) Assignments() []Assignment { return l.assignments }

// Slot returns the slot of a sequence pair, false when it has no assignment.
func (l *Layout) Slot(e timeseries.Pair) (int, bool) {
	if !e.Valid() || int(e.V) >= l.n {
		return 0, false
	}
	slot := l.slotOf[triIndex(l.n, e)]
	return int(slot), slot >= 0
}

// Pivots returns the distinct assigned pivots in canonical (Common, Cluster)
// order.
func (l *Layout) Pivots() []Pivot { return l.pivots }

// PivotOf returns the position in Pivots of the pivot assigned to a slot.
func (l *Layout) PivotOf(slot int) int { return int(l.pivotOf[slot]) }

// PivotSlots returns the slots assigned to pivot pi (a position in Pivots),
// in canonical pair order.
func (l *Layout) PivotSlots(pi int) []int32 {
	return l.byPivot[l.pivotStart[pi]:l.pivotStart[pi+1]]
}

// Result is the output of SYMEX/SYMEX+: the affine relationships (the paper's
// affHash) stored in a slice aligned with the layout's assignment list, the
// per-pivot grouping (pivotHash) read off the layout, and the clustering they
// are based on.  A result is immutable: Refit clones the slice and overwrites
// the stale slots, sharing the layout and every untouched relationship.
//
// A result is pinned once a younger result shares its relationships — a
// partial Refit of it, a Subset of it, or a caller that says so (Pin) — and
// the slab a full Refit wrote its relationships into is written again, by a
// later full Refit that recycles the result, only while it is not pinned.
type Result struct {
	layout *Layout
	// rels[slot] is the relationship fitted for assignment slot.
	rels []*Relationship
	// slab holds the relationships by value when a full Refit fitted them
	// (rels[slot] == &slab[slot]); nil otherwise.
	slab []Relationship
	// pinned marks a result some younger result shares relationships with.
	pinned atomic.Bool
	// pairCov[slot] is cov(s_common, s_other) of the slot's pair over the
	// fitted window, kept by a full SYMEX+ fit (PairCov); nil otherwise.
	pairCov []float64
	// Clustering is the AFCLST result used to build pivot pairs.
	Clustering *cluster.Result
	// Stats holds work counters.
	Stats Stats
}

// NewResult is the one constructor of results: rels[slot] holds the
// relationship of the layout's assignment slot, fitted over the given
// clustering; every slot has one.  The slice is owned by the result from here
// on.  It fills the relationship and pivot counts of Stats; the fit counters
// are the caller's.
func NewResult(l *Layout, clustering *cluster.Result, rels []*Relationship) *Result {
	if len(rels) != len(l.assignments) {
		panic(fmt.Sprintf("symex: %d relationship slots for %d assignments", len(rels), len(l.assignments)))
	}
	if slot := slices.Index(rels, nil); slot >= 0 {
		panic(fmt.Sprintf("symex: assignment slot %d has no relationship", slot))
	}
	r := &Result{layout: l, rels: rels, Clustering: clustering}
	r.Stats.NumPivots = len(l.pivots)
	r.Stats.NumRelationships = len(rels)
	return r
}

// Layout returns the frozen assignment indexes the result is stored against.
func (r *Result) Layout() *Layout { return r.layout }

// PairCov returns, aligned with the assignment slots, the covariance of every
// assigned pair over the fitted window — the kernel.CovBlock bits of the
// pair in (common, other) orientation, which are the canonical pair's bits
// (the kernel's products commute) — or nil.  A full SYMEX+ fit (Compute, or
// Refit with a nil stale set) reduces every one of them for the moment form
// and keeps them, guard-routed pivots included; a partial
// Refit, plain SYMEX and a result assembled from given relationships (a
// snapshot) have none.  The slice must not be modified.
func (r *Result) PairCov() []float64 { return r.pairCov }

// Pin marks the result's relationships as shared by a younger result that
// the caller assembles from them (At): no later Refit recycling r writes
// into them.
func (r *Result) Pin() { r.pinned.Store(true) }

// Subset restricts the result to the given assignment slots, in the order
// given: a result over a layout of those assignments alone that shares the
// clustering and the relationships (r is pinned) and carries the slots' pair
// covariances when r has them.  The fit counters of Stats are left zero.
func (r *Result) Subset(slots []int32) (*Result, error) {
	r.Pin()
	assignments := make([]Assignment, len(slots))
	rels := make([]*Relationship, len(slots))
	for i, slot := range slots {
		assignments[i], rels[i] = r.layout.assignments[slot], r.rels[slot]
	}
	layout, err := NewLayout(r.layout.n, assignments)
	if err != nil {
		return nil, err
	}
	res := NewResult(layout, r.Clustering, rels)
	if r.pairCov != nil {
		res.pairCov = make([]float64, len(slots))
		for i, slot := range slots {
			res.pairCov[i] = r.pairCov[slot]
		}
	}
	return res, nil
}

// AssignmentList returns the full pair→pivot assignment produced by the
// exploration.
func (r *Result) AssignmentList() []Assignment { return r.layout.assignments }

// Len returns the number of affine relationships, one per assignment.
func (r *Result) Len() int { return len(r.rels) }

// At returns the relationship of an assignment slot.
func (r *Result) At(slot int) *Relationship { return r.rels[slot] }

// Relationship returns the affine relationship for a sequence pair.
func (r *Result) Relationship(e timeseries.Pair) (*Relationship, bool) {
	slot, ok := r.layout.Slot(e)
	if !ok {
		return nil, false
	}
	return r.rels[slot], true
}

// All iterates the relationships in assignment order.
func (r *Result) All() iter.Seq[*Relationship] {
	return slices.Values(r.rels)
}

// InPairOrder iterates the relationships in canonical (U, V) pair order, the
// order the layout's pair→slot table is laid out in.
func (r *Result) InPairOrder() iter.Seq[*Relationship] {
	return func(yield func(*Relationship) bool) {
		for _, slot := range r.layout.slotOf {
			if slot >= 0 && !yield(r.rels[slot]) {
				return
			}
		}
	}
}

// PivotLen returns the number of relationships of pivot pi (a position in
// Layout().Pivots()).
func (r *Result) PivotLen(pi int) int { return len(r.layout.PivotSlots(pi)) }

// PivotRelationships iterates the relationships of pivot pi in canonical pair
// order — the order the SCAPE sequence stores keep.
func (r *Result) PivotRelationships(pi int) iter.Seq[*Relationship] {
	return func(yield func(*Relationship) bool) {
		for _, slot := range r.layout.PivotSlots(pi) {
			if !yield(r.rels[slot]) {
				return
			}
		}
	}
}

// PivotMatrix rebuilds the pivot pair matrix O_p = [s_common, r_cluster] for
// a pivot generated by this result.
func (r *Result) PivotMatrix(d *timeseries.DataMatrix, p Pivot) (*mat.Matrix, error) {
	if p.Cluster < 0 || p.Cluster >= r.Clustering.K() {
		return nil, fmt.Errorf("symex: pivot %v references unknown cluster", p)
	}
	return d.ColumnsMatrix(p.Common, r.Clustering.Centers[p.Cluster])
}

// PivotColumns returns the two columns of O_p = [s_common, r_cluster] as
// read-only slice views, with the same validation as PivotMatrix but without
// materializing (copying) the pair matrix.  Callers must not mutate either
// slice: the first aliases the data matrix's backing storage and the second
// the clustering's center vector.
func (r *Result) PivotColumns(d *timeseries.DataMatrix, p Pivot) (common, center []float64, err error) {
	return pivotColumns(d, r.Clustering, p)
}

// PivotTerms returns the pivot-side terms of every layout pivot over window d,
// aligned with Layout().Pivots(): the covariance and Gram blocks and
// the column sums of O_p = [s_common, r_cluster] — the moments the paper's
// pre-processing step stores in pivotHash, which W_A propagates (Eqs. 5–7),
// whose first row is SCAPE's α and whose covariance block is the Gram of the
// moment-form fit.  This is the one place they are assembled, once per window
// (memoised on the layout; the result must not be modified).  The
// self-moments are the memoised two-pass ones of the window and of the
// clustering; the cross terms come from the window's cross pass
// (kernel.CrossPanel).  The output is identical at any parallelism.
func (r *Result) PivotTerms(d *timeseries.DataMatrix, parallelism int) ([]measure.PivotTerms, error) {
	return pivotTerms(d, r.layout, r.Clustering, parallelism)
}

func pivotTerms(d *timeseries.DataMatrix, l *Layout, clustering *cluster.Result, parallelism int) ([]measure.PivotTerms, error) {
	w := l.reduced(d, clustering, parallelism)
	return w.terms, w.termsErr
}

// CenterCovariances returns, for every series v of window d, the centred
// covariance cov(r_ω(v), s_v) of the series with its own cluster centre
// (CovarianceOf's bits).  It is the one home of that reduction: the engine's
// per-series calibration reads it, and so does every moment-form fit, since
// the centre of pivot (u, ω(v)) is the other series' own.  Memoised on the
// layout per window with PivotTerms, out of the same cross pass; the result
// must not be modified.  The output is identical at any parallelism.
func (r *Result) CenterCovariances(d *timeseries.DataMatrix, parallelism int) ([]float64, error) {
	return centerCovariances(d, r.layout, r.Clustering, parallelism)
}

func centerCovariances(d *timeseries.DataMatrix, l *Layout, clustering *cluster.Result, parallelism int) ([]float64, error) {
	w := l.reduced(d, clustering, parallelism)
	return w.centerCov, w.covErr
}

// crossScratch is reduceCrossMoments' scratch, recycled through
// crossScratchPool: the window's series and the n×K inner products and
// covariances of every series with every centre.
type crossScratch struct {
	rows [][]float64
	buf  []float64
}

var crossScratchPool = par.Scratch[crossScratch]{Hold: true}

// reduceCrossMoments reduces every series of window d against every centre of
// the clustering in one kernel.CrossPanel pass and assembles both of the
// window's memos from it: the pivot terms of the pivots and each series'
// covariance with its own centre.  Each has its own error, reported without
// regard to how the pass is blocked: the terms check every pivot's columns in
// pivot order, the covariances every series' assignment, and both need every
// centre to fit the window.
func reduceCrossMoments(d *timeseries.DataMatrix, pivots []Pivot, clustering *cluster.Result, parallelism int) (terms []measure.PivotTerms, termsErr error, covs []float64, covErr error) {
	for _, p := range pivots {
		if _, _, termsErr = pivotColumns(d, clustering, p); termsErr != nil {
			break
		}
	}
	n, m, k := d.NumSeries(), d.NumSamples(), clustering.K()
	if err := checkCenters(clustering, m); err != nil {
		return nil, cmp.Or(termsErr, err), nil, err
	}
	if covErr = checkAssignment(clustering, n); termsErr != nil && covErr != nil {
		return nil, termsErr, nil, covErr
	}
	sc, _ := crossScratchPool.Get()
	defer crossScratchPool.Put(sc)
	sc.rows = slices.Grow(sc.rows[:0], n)[:n]
	defer clear(sc.rows) // the pool keeps no window reachable
	for id := range n {
		sc.rows[id], _ = d.Series(timeseries.SeriesID(id))
	}
	sc.buf = slices.Grow(sc.buf[:0], 2*n*k)
	dot, cov := sc.buf[:n*k], sc.buf[n*k:2*n*k]
	series, centers := d.Moments(), clustering.CenterMoments()
	if err := kernel.CrossPanel(sc.rows, series.Mean, clustering.Centers, centers.Mean, dot, cov, parallelism); err != nil {
		return nil, err, nil, err
	}
	if termsErr == nil {
		terms = make([]measure.PivotTerms, len(pivots))
		for i, p := range pivots {
			u, l := int(p.Common), p.Cluster
			terms[i] = measure.PivotTerms{
				Cov:        [3]float64{series.Variance[u], cov[u*k+l], centers.Variance[l]},
				Dot:        [3]float64{series.SqNorm[u], dot[u*k+l], centers.SqNorm[l]},
				ColSums:    [2]float64{series.Sum[u], centers.Sum[l]},
				NumSamples: m,
			}
		}
	}
	if covErr == nil {
		covs = make([]float64, n)
		for v := range covs {
			covs[v] = cov[v*k+clustering.Assignment[v]]
		}
	}
	return terms, termsErr, covs, covErr
}
