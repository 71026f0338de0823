package symex

import (
	"cmp"
	"fmt"
	"iter"
	"slices"

	"affinity/internal/cluster"
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
// Result shares it by pointer; nothing in it is ever mutated.  The pair→slot
// index is dense: 4 B for each of the n(n−1)/2 pairs, assigned or not, so a
// layout (the global one and each shard's restriction alike) costs O(n²).
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
}

// NewLayout indexes an assignment list over n series.  It rejects a pair
// outside the series, a pivot whose common series is not a member of its
// pair, a pair assigned twice, and more series than int32 can number pairs of.
func NewLayout(n int, assignments []Assignment) (*Layout, error) {
	if n > 1<<16 {
		return nil, fmt.Errorf("symex: %d series exceed the layout's int32 pair index", n)
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
	pivotIndex := make(map[Pivot]int32)
	for slot, a := range assignments {
		if !a.Pair.Valid() || int(a.Pair.V) >= n || !a.Pair.Contains(a.Pivot.Common) {
			return nil, fmt.Errorf("symex: invalid assignment %v → %v for %d series", a.Pair, a.Pivot, n)
		}
		at := l.pairIndex(a.Pair)
		if l.slotOf[at] >= 0 {
			return nil, fmt.Errorf("symex: pair %v assigned twice", a.Pair)
		}
		l.slotOf[at] = int32(slot)
		if _, ok := pivotIndex[a.Pivot]; !ok {
			pivotIndex[a.Pivot] = 0
			l.pivots = append(l.pivots, a.Pivot)
		}
	}
	// The canonical (Common, Cluster) order: the one total order every
	// consumer walks pivots in, so that work distribution and error selection
	// under the parallel helpers are deterministic.
	slices.SortFunc(l.pivots, func(a, b Pivot) int {
		return cmp.Or(cmp.Compare(a.Common, b.Common), cmp.Compare(a.Cluster, b.Cluster))
	})
	for i, p := range l.pivots {
		pivotIndex[p] = int32(i)
	}
	for slot, a := range assignments {
		l.pivotOf[slot] = pivotIndex[a.Pivot]
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

// pairIndex maps a canonical pair to its position in the strict upper
// triangle of the n×n pair grid, row by row — ascending in (U, V) order.
func (l *Layout) pairIndex(e timeseries.Pair) int {
	u, v := int(e.U), int(e.V)
	return u*(2*l.n-u-1)/2 + v - u - 1
}

// Assignments returns the frozen assignment list; slot i is Assignments()[i].
func (l *Layout) Assignments() []Assignment { return l.assignments }

// Slot returns the slot of a sequence pair, false when it has no assignment.
func (l *Layout) Slot(e timeseries.Pair) (int, bool) {
	if !e.Valid() || int(e.V) >= l.n {
		return 0, false
	}
	slot := l.slotOf[l.pairIndex(e)]
	return int(slot), slot >= 0
}

// Pivots returns the distinct assigned pivots in canonical (Common, Cluster)
// order, including pivots whose every relationship is currently pruned.
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
type Result struct {
	layout *Layout
	// rels[slot] is the relationship fitted for assignment slot, nil while
	// the MaxLSFD bound has it pruned.
	rels []*Relationship
	live []int32 // surviving relationships per pivot, aligned with Pivots
	n    int     // surviving relationships in total
	// Clustering is the AFCLST result used to build pivot pairs.
	Clustering *cluster.Result
	// Stats holds work counters.
	Stats Stats
}

// NewResult is the one constructor of results: rels[slot] holds the
// relationship of the layout's assignment slot, nil when pruned, fitted over
// the given clustering.  The slice is owned by the result from here on.  It
// fills the relationship and pivot counts of Stats; the fit counters are the
// caller's.
func NewResult(l *Layout, clustering *cluster.Result, rels []*Relationship) *Result {
	if len(rels) != len(l.assignments) {
		panic(fmt.Sprintf("symex: %d relationship slots for %d assignments", len(rels), len(l.assignments)))
	}
	r := &Result{layout: l, rels: rels, live: make([]int32, len(l.pivots)), Clustering: clustering}
	for slot, rel := range rels {
		if rel != nil {
			r.live[l.pivotOf[slot]]++
			r.n++
		}
	}
	for _, c := range r.live {
		if c > 0 {
			r.Stats.NumPivots++
		}
	}
	r.Stats.NumRelationships = r.n
	return r
}

// Layout returns the frozen assignment indexes the result is stored against.
func (r *Result) Layout() *Layout { return r.layout }

// AssignmentList returns the full pair→pivot assignment produced by the
// exploration, including pairs whose relationship is pruned.
func (r *Result) AssignmentList() []Assignment { return r.layout.assignments }

// Len returns the number of (unpruned) affine relationships.
func (r *Result) Len() int { return r.n }

// At returns the relationship of an assignment slot, nil while pruned.
func (r *Result) At(slot int) *Relationship { return r.rels[slot] }

// Relationship returns the affine relationship for a sequence pair.
func (r *Result) Relationship(e timeseries.Pair) (*Relationship, bool) {
	slot, ok := r.layout.Slot(e)
	if !ok || r.rels[slot] == nil {
		return nil, false
	}
	return r.rels[slot], true
}

// All iterates the relationships in assignment order.
func (r *Result) All() iter.Seq[*Relationship] {
	return func(yield func(*Relationship) bool) {
		for _, rel := range r.rels {
			if rel != nil && !yield(rel) {
				return
			}
		}
	}
}

// PivotLen returns the number of relationships of pivot pi (a position in
// Layout().Pivots()).
func (r *Result) PivotLen(pi int) int { return int(r.live[pi]) }

// PivotRelationships iterates the relationships of pivot pi in canonical pair
// order — the order the SCAPE sequence stores keep.
func (r *Result) PivotRelationships(pi int) iter.Seq[*Relationship] {
	return func(yield func(*Relationship) bool) {
		for _, slot := range r.layout.PivotSlots(pi) {
			if rel := r.rels[slot]; rel != nil && !yield(rel) {
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
// aligned with Layout().Pivots() (pruned pivots included, so a refit that
// revives a pair finds its pivot's terms): the covariance and Gram blocks and
// the column sums of O_p = [s_common, r_cluster] — the moments the paper's
// pre-processing step stores in pivotHash, which W_A propagates (Eqs. 5–7) and
// whose first row is SCAPE's α.  This is the one place they are assembled.
// The self-moments are the memoised two-pass ones of the window and of the
// clustering; the cross terms are reduced by measure.CrossMoments in the
// centred form, the common series loaded once for a tile of its centers.
// The output is identical at any parallelism.
func (r *Result) PivotTerms(d *timeseries.DataMatrix, parallelism int) ([]measure.PivotTerms, error) {
	pivots := r.layout.pivots
	// Check every pivot's columns in pivot order first, so the error reported
	// does not depend on how the reduction below is blocked.
	for _, p := range pivots {
		if _, _, err := r.PivotColumns(d, p); err != nil {
			return nil, err
		}
	}
	series, centers := d.Moments(), r.Clustering.CenterMoments()
	terms := make([]measure.PivotTerms, len(pivots))
	// Pivots are in (Common, Cluster) order, so the pivots of one common series
	// are a run; a run cut by a block boundary is reduced in two pieces, which
	// changes no output (every pivot has its own accumulators).
	k := r.Clustering.K() // a common series has at most one pivot per center
	err := par.DoBlocks(len(pivots), parallelism, func(_ int, blk par.Block) error {
		cols := make([][]float64, 0, k)
		scratch := make([]float64, 3*k)
		for lo := blk.Lo; lo < blk.Hi; {
			common := pivots[lo].Common
			cols = cols[:0]
			for hi := lo; hi < blk.Hi && pivots[hi].Common == common; hi++ {
				cols = append(cols, r.Clustering.Centers[pivots[hi].Cluster])
			}
			run := pivots[lo : lo+len(cols)]
			means, dots, covs := scratch[:len(run)], scratch[k:k+len(run)], scratch[2*k:2*k+len(run)]
			for i, p := range run {
				means[i] = centers.Mean[p.Cluster]
			}
			x, err := d.Series(common)
			if err != nil {
				return err
			}
			if err := measure.CrossMoments(x, series.Mean[common], cols, means, dots, covs); err != nil {
				return err
			}
			for i, p := range run {
				terms[lo+i] = measure.PivotTerms{
					Cov:        [3]float64{series.Variance[common], covs[i], centers.Variance[p.Cluster]},
					Dot:        [3]float64{series.SqNorm[common], dots[i], centers.SqNorm[p.Cluster]},
					ColSums:    [2]float64{series.Sum[common], centers.Sum[p.Cluster]},
					NumSamples: len(x),
				}
			}
			lo += len(run)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return terms, nil
}
