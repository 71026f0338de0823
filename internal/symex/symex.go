// Package symex implements the SYMEX and SYMEX+ algorithms of Section 4
// (Algorithm 2) of the paper: the systematic exploration of the sequence pair
// set P that associates every sequence pair e = (u, v) with a pivot pair
// p and computes the least-squares affine relationship (A, b)_e between the
// pivot pair matrix O_p and the sequence pair matrix S_e.
//
// A pivot pair replaces one member of a sequence pair by the AFCLST cluster
// center of that member (Definition 2): the pivot for e = (u, v) is either
// (u, ω(v)) with matrix [s_u, r_ω(v)] or (ω(u), v) with matrix [s_v, r_ω(u)]
// — in both cases one series of the pair is kept as the "common" series and
// the other is approximated by its cluster center.  Keeping a common series
// guarantees exact propagation of the dot product (Lemma 1) and lets the
// SCAPE index assume a canonical first transformation column a1 = (1, 0)ᵀ.
//
// SYMEX+ differs from SYMEX by sharing the per-pivot part of the fit across
// the many sequence pairs of a pivot; the paper caches the pseudo-inverse of
// the design matrix [O_p, 1_m] and measures a 3.5–4x speedup.  Here SYMEX+
// goes further and shares second moments instead: every relationship is one
// closed-form 2×2 centred solve over moments the epoch reduces anyway, plus
// one pair covariance (momentfit.go).  The m-sample pseudo-inverse kernel
// (kernel.go) is left to two callers: the pivots the moment form's exactness
// guard turns away, and plain SYMEX, the paper's Fig 13 ablation, which still
// computes one pseudo-inverse per relationship.
package symex

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// ErrTooFewSeries indicates a data matrix with fewer than two series, for
// which no sequence pairs exist.
var ErrTooFewSeries = errors.New("symex: need at least two series")

// Pivot identifies a pivot pair p: the kept ("common") series and the AFCLST
// cluster whose center replaces the other member of the sequence pair.  The
// pivot pair matrix is O_p = [s_Common, r_Cluster].
type Pivot struct {
	Common  timeseries.SeriesID
	Cluster int
}

// String renders the pivot as "(u, ω=c)".
func (p Pivot) String() string { return fmt.Sprintf("(%d, ω=%d)", p.Common, p.Cluster) }

// Relationship is an affine relationship (Definition 3): the affine
// transformation from the pivot pair matrix O_p to the sequence pair matrix
// S_e, together with bookkeeping about which member of the pair is the
// common series.
type Relationship struct {
	// Pair is the sequence pair e in canonical (U < V) order.
	Pair timeseries.Pair
	// Pivot is the pivot pair p assigned to e.
	Pivot Pivot
	// Transform maps [s_common, r_cluster] to [s_common, s_other].  It is
	// held by value, so a relationship is one heap object.
	Transform affine.Transform
	// Flipped reports that the common series is Pair.V (so the target pair
	// matrix the transform produces is [s_V, s_U] rather than [s_U, s_V]).
	// Pairwise measures are symmetric, so this only matters when per-column
	// (location) results must be reported in canonical order.
	Flipped bool
}

// Common returns the identifier of the common series of the relationship.
func (r *Relationship) Common() timeseries.SeriesID {
	if r.Flipped {
		return r.Pair.V
	}
	return r.Pair.U
}

// Other returns the identifier of the non-common series of the relationship.
func (r *Relationship) Other() timeseries.SeriesID {
	if r.Flipped {
		return r.Pair.U
	}
	return r.Pair.V
}

// Options configures Compute.
type Options struct {
	// Cluster holds the AFCLST parameters.
	Cluster cluster.Config
	// CachePseudoInverse selects the SYMEX+ variant: the per-pivot part of
	// the fit is shared by the pivot's relationships — the moment form, or
	// the pseudo-inverse of [O_p, 1_m] computed once per pivot where the
	// exactness guard keeps the kernel.  Without it (plain SYMEX) every
	// relationship computes its own pseudo-inverse.
	CachePseudoInverse bool
	// MaxRelationships, when positive, stops the exploration after this many
	// affine relationships have been produced.  It is used by the scalability
	// experiments that sweep the number of relationships.
	MaxRelationships int
	// Clustering, when non-nil, reuses an existing AFCLST result instead of
	// re-running the clustering (used when several SYMEX configurations are
	// compared on identical clusters).
	Clustering *cluster.Result
	// Parallelism sets the number of worker goroutines used to fit affine
	// relationships.  Zero or one selects the sequential algorithm; the
	// result is identical either way (fits are independent), only the
	// exploration-order bookkeeping differs internally.
	Parallelism int
}

// Stats reports work counters of a Compute run.
type Stats struct {
	// NumRelationships is the number of affine relationships produced (g).
	NumRelationships int
	// NumPivots is the number of distinct pivot pairs generated (≤ n·k).
	NumPivots int
	// PseudoInverseComputations counts the pseudo-inverses the m-sample
	// kernel computed: one per relationship under plain SYMEX, one per pivot
	// the moment form's exactness guard turned away under SYMEX+ (none on
	// well-conditioned data).
	PseudoInverseComputations int
	// PseudoInverseCacheHits counts the fits that computed no pseudo-inverse
	// of their own: the fitted relationships minus PseudoInverseComputations
	// (always zero for plain SYMEX).
	PseudoInverseCacheHits int
}

// Assignment records the pivot assigned to one sequence pair by the
// exploration phase.  The list of assignments is what a streaming refit needs to
// re-fit relationships on a slid window without re-running the exploration.
type Assignment struct {
	// Pair is the sequence pair e in canonical (U < V) order.
	Pair timeseries.Pair
	// Pivot is the pivot pair assigned to e; Pivot.Common identifies which
	// member of the pair is kept as the common series.
	Pivot Pivot
}

func pivotColumns(d *timeseries.DataMatrix, clustering *cluster.Result, p Pivot) (common, center []float64, err error) {
	if p.Cluster < 0 || p.Cluster >= clustering.K() {
		return nil, nil, fmt.Errorf("symex: pivot %v references unknown cluster (k=%d)", p, clustering.K())
	}
	common, err = d.Series(p.Common)
	if err != nil {
		return nil, nil, err
	}
	center = clustering.Centers[p.Cluster]
	if len(center) != len(common) {
		return nil, nil, fmt.Errorf("%w: cluster center has %d samples, window has %d",
			timeseries.ErrShapeMismatch, len(center), len(common))
	}
	return common, center, nil
}

// Compute runs SYMEX (or SYMEX+ when opts.CachePseudoInverse is set) over the
// data matrix: it clusters the series with AFCLST, systematically explores
// the sequence pair set to assign a pivot pair to every sequence pair, and
// fits one least-squares affine relationship per assignment.
//
// The exploration (Algorithm 2) is inherently sequential and cheap; the
// least-squares fits dominate the cost and are independent of each other, so
// they are optionally fanned out over opts.Parallelism goroutines.  The
// result is identical for any parallelism level.
func Compute(d *timeseries.DataMatrix, opts Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumSeries()
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrTooFewSeries, n)
	}
	if err := checkSeriesCount(n); err != nil {
		return nil, err
	}

	clustering := opts.Clustering
	if clustering == nil {
		var err error
		clustering, err = cluster.Run(d, opts.Cluster)
		if err != nil {
			return nil, fmt.Errorf("symex: clustering: %w", err)
		}
	}

	if err := checkCenters(clustering, d.NumSamples()); err != nil {
		return nil, err
	}
	if err := checkAssignment(clustering, n); err != nil {
		return nil, err
	}

	// Phase 1: systematic exploration of P (Algorithm 2).  Two anchor pairs
	// march toward each other from the extremes and the middle of the pair
	// grid; each anchor scans one row and one column, assigning a pivot to
	// every not-yet-covered pair.
	pairs := n * (n - 1) / 2
	ex := &explorer{
		n:          n,
		clustering: clustering,
		limit:      opts.MaxRelationships,
		assigned:   make([]bool, pairs),
	}
	if ex.limit > 0 {
		pairs = min(pairs, ex.limit)
	}
	ex.assignments = make([]Assignment, 0, pairs)
	ee := timeseries.Pair{U: 0, V: timeseries.SeriesID(n - 1)}
	mid := timeseries.SeriesID((n - 1) / 2)
	ew := timeseries.Pair{U: mid, V: mid + 1}
	if int(ew.V) >= n {
		ew = ee
	}
	flip := false
	for steps := 0; steps < n && !ex.done(); steps++ {
		if !flip {
			if err := ex.createPivots(ee); err != nil {
				return nil, err
			}
			ee = timeseries.Pair{U: ee.U + 1, V: ee.V - 1}
			flip = true
		} else {
			if err := ex.createPivots(ew); err != nil {
				return nil, err
			}
			ew = timeseries.Pair{U: ew.U - 1, V: ew.V + 1}
			flip = false
		}
		if !ee.Valid() || !ew.Valid() || int(ew.V) >= n {
			break
		}
		if ee == ew {
			if err := ex.createPivots(ee); err != nil {
				return nil, err
			}
			break
		}
	}
	// Safety sweep: the marching covers all of P when it runs to completion,
	// but an early stop (relationship limit, tiny n) can leave pairs
	// unassigned; cover them with the canonical pivot (u, ω(v)).
	for u := 0; u < n-1 && !ex.done(); u++ {
		for v := u + 1; v < n && !ex.done(); v++ {
			e := timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)}
			if err := ex.assign(e, e.U); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: fit the affine relationships, one slot per assignment.
	layout, err := NewLayout(n, ex.assignments)
	if err != nil {
		return nil, err
	}
	rels := make([]*Relationship, len(ex.assignments))
	var covs []float64
	if opts.CachePseudoInverse {
		covs = make([]float64, len(rels))
	}
	f := &fitter{data: d, clustering: clustering, layout: layout, batch: opts.CachePseudoInverse}
	pinvs, err := f.fitSlots(rels, covs, nil, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	res := NewResult(layout, clustering, rels)
	res.pairCov = covs
	res.Stats.PseudoInverseComputations = pinvs
	res.Stats.PseudoInverseCacheHits = len(rels) - pinvs
	return res, nil
}

// explorer carries the state of the exploration phase.
type explorer struct {
	n          int
	clustering *cluster.Result
	limit      int
	// assigned flags the pairs that have a pivot, indexed by triIndex like
	// the layout's pair→slot index.
	assigned    []bool
	assignments []Assignment
}

// done reports whether the relationship limit has been reached.
func (ex *explorer) done() bool {
	return ex.limit > 0 && len(ex.assignments) >= ex.limit
}

// createPivots implements the CreatePivots function of Algorithm 2: scan the
// row and the column of the pair grid anchored at ez.  Pairs in the scanned
// row keep the anchor's first component as the common series; pairs in the
// scanned column keep the anchor's second component.
func (ex *explorer) createPivots(ez timeseries.Pair) error {
	n := timeseries.SeriesID(ex.n)
	if ez.U < 0 || ez.V >= n || !ez.Valid() {
		return nil
	}
	for v := ez.U + 1; v < n && !ex.done(); v++ {
		if err := ex.assign(timeseries.Pair{U: ez.U, V: v}, ez.U); err != nil {
			return err
		}
	}
	for u := timeseries.SeriesID(0); u < ez.V && !ex.done(); u++ {
		if err := ex.assign(timeseries.Pair{U: u, V: ez.V}, ez.V); err != nil {
			return err
		}
	}
	return nil
}

// assign records the pivot assignment of a sequence pair (the bookkeeping
// half of SolveInsert), skipping pairs that already have one.
func (ex *explorer) assign(e timeseries.Pair, common timeseries.SeriesID) error {
	at := triIndex(ex.n, e)
	if ex.assigned[at] {
		return nil
	}
	other, err := e.Other(common)
	if err != nil {
		return err
	}
	omega, err := ex.clustering.Omega(other)
	if err != nil {
		return err
	}
	ex.assigned[at] = true
	ex.assignments = append(ex.assignments, Assignment{Pair: e, Pivot: Pivot{Common: common, Cluster: omega}})
	return nil
}

// fitter carries the state of the fitting phase.
type fitter struct {
	data       *timeseries.DataMatrix
	clustering *cluster.Result
	layout     *Layout
	// batch selects SYMEX+ (the moment form, one pseudo-inverse per guarded
	// pivot) over plain SYMEX (one pseudo-inverse per relationship).
	batch bool

	// The moment form's inputs over data (loadMoments; unset for plain SYMEX).
	terms           []measure.PivotTerms
	centerCov       []float64
	series, centers *timeseries.Moments
	kern            *kernel.Matrix
	// slab, when set, is where the fits are written by value: slot i's
	// relationship is &slab[i].  A full Refit sets it; every other fit
	// allocates each relationship on its own.
	slab []Relationship
}

// fitScratch is one worker block's scratch, recycled through fitScratchPool:
// the kernel's buffers (sized on the first guarded pivot) and the lists of
// the batch of groups being fitted (fitBlock).
type fitScratch struct {
	k      pivotFit
	groups []groupFit
	others []timeseries.SeriesID // each member's non-common series, in batch order
	pairs  []timeseries.Pair     // (common, other) of every pair a partial refit's batch reduces
	covs   []float64             // cov(s_common, s_other) of the moment-form members, in batch order
}

var fitScratchPool = par.Scratch[fitScratch]{Hold: true}

// groupFit is one listed pivot group of a batch.
type groupFit struct {
	pi     int32
	others int32 // offset of the members' other series in fitScratch.others
	covs   int32 // offset of the members' covariances in fitScratch.covs, −1 for none
	ok     bool  // the guard admits the pivot to the moment form
	mp     momentPivot
}

// fitSlots fits the assignments at the given slots (nil means every slot)
// against the window and stores each fit at rels[slot].  Under SYMEX+
// (f.batch) with covs non-nil — a full fit, slots nil — it first reduces
// every slot's pair covariance cov(s_common, s_other) into covs[slot] in one
// pass over the pair triangle (kernel.CovTriangle), which the moment form
// reads and the result keeps, whichever route the fit takes.  Every fit is
// independent and lands at its own slot, so the output is the same at any
// parallelism.  It returns the number of pseudo-inverses the kernel computed.
//
// The unit of work is a pivot group: all the slots to fit that share a pivot.
// Under SYMEX+ a group takes the moment form (momentfit.go) unless the
// exactness guard sends it to the kernel, which then computes the pivot's
// pseudo-inverse rows once for the whole group; under plain SYMEX every fit
// pays for its own pseudo-inverse.  Workers take contiguous blocks of groups,
// one pooled scratch per block (fitBlock).
func (f *fitter) fitSlots(rels []*Relationship, covs []float64, slots []int32, parallelism int) (int, error) {
	if m := f.data.NumSamples(); m < 2 {
		return 0, fmt.Errorf("%w: fitting needs a window of at least 2 samples, got %d", affine.ErrBadShape, m)
	}
	members, start := f.layout.byPivot, f.layout.pivotStart
	if slots != nil {
		members, start = f.layout.bucket(slots)
	}
	if f.batch && len(members) > 0 {
		if err := f.loadMoments(parallelism); err != nil {
			return 0, err
		}
		if covs != nil {
			f.kern.CovTriangle(f.series, f.layout.slotOf, covs, parallelism)
		}
	}
	var pinvs atomic.Int64
	err := par.DoBlocks(len(start)-1, parallelism, func(_ int, blk par.Block) error {
		w, _ := fitScratchPool.Get()
		defer fitScratchPool.Put(w)
		n, err := f.fitBlock(w, blk, members, start, rels, covs)
		pinvs.Add(int64(n))
		return err
	})
	return int(pinvs.Load()), err
}

// fitBlock fits the pivot groups of one worker block a batch at a time.  It
// lists groups — their members and, under SYMEX+, the guard's verdict and the
// moment form's pair covariances, copied from a full fit's covs or listed as
// pairs for a partial refit to reduce — until they hold kernel.BlockPairs
// members, then solves them (fitBatch).  Pivots in (Common, Cluster) order
// make a series' pivots one run of tiles sharing the common column, so only a
// batch's last tile can fall to CovBlock's one-pair loop, and the scratch
// stays O(BlockPairs + largest group).  It returns the number of
// pseudo-inverses computed.
func (f *fitter) fitBlock(w *fitScratch, blk par.Block, members, start []int32, rels []*Relationship, covs []float64) (int, error) {
	pinvs := 0
	w.groups, w.others, w.pairs, w.covs = w.groups[:0], w.others[:0], w.pairs[:0], w.covs[:0]
	for pi := blk.Lo; pi < blk.Hi; pi++ {
		group := members[start[pi]:start[pi+1]]
		if len(group) == 0 {
			continue
		}
		p := f.layout.pivots[pi]
		g := groupFit{pi: int32(pi), others: int32(len(w.others)), covs: -1}
		for _, slot := range group {
			other, err := f.layout.assignments[slot].Pair.Other(p.Common)
			if err != nil {
				return 0, err
			}
			w.others = append(w.others, other)
		}
		if f.batch {
			g.mp, g.ok = f.momentPivot(pi, w.others[g.others:])
			switch {
			case !g.ok:
			case covs != nil:
				g.covs = int32(len(w.covs))
				for _, slot := range group {
					w.covs = append(w.covs, covs[slot])
				}
			default:
				// A partial refit reduces only the covariances the moment
				// form reads.
				g.covs = int32(len(w.pairs))
				for _, v := range w.others[g.others:] {
					w.pairs = append(w.pairs, timeseries.Pair{U: p.Common, V: v})
				}
			}
		}
		w.groups = append(w.groups, g)
		if len(w.others) >= kernel.BlockPairs {
			n, err := f.fitBatch(w, members, start, rels)
			if err != nil {
				return 0, err
			}
			pinvs += n
		}
	}
	n, err := f.fitBatch(w, members, start, rels)
	return pinvs + n, err
}

// fitBatch reduces the pair covariances a partial refit's listed groups need
// in one CovBlock call, fits every listed group and empties the lists.
func (f *fitter) fitBatch(w *fitScratch, members, start []int32, rels []*Relationship) (int, error) {
	if len(w.pairs) > 0 {
		w.covs = slices.Grow(w.covs[:0], len(w.pairs))[:len(w.pairs)]
		f.kern.CovBlock(f.series, w.pairs, w.covs)
	}
	pinvs := 0
	for i := range w.groups {
		g := &w.groups[i]
		n, err := f.fitGroup(w, g, members[start[g.pi]:start[g.pi+1]], rels)
		if err != nil {
			return 0, err
		}
		pinvs += n
	}
	w.groups, w.others, w.pairs, w.covs = w.groups[:0], w.others[:0], w.pairs[:0], w.covs[:0]
	return pinvs, nil
}

// fitGroup fits the member slots of a listed pivot group — by the moment form
// when the guard admits it, by the kernel otherwise.  It returns the number of pseudo-inverses computed.
func (f *fitter) fitGroup(w *fitScratch, g *groupFit, members []int32, rels []*Relationship) (int, error) {
	p := f.layout.pivots[g.pi]
	others := w.others[g.others : int(g.others)+len(members)]
	common, center, err := pivotColumns(f.data, f.clustering, p)
	if err != nil {
		return 0, err
	}
	pinvs := 0
	if !g.ok || !f.momentGroup(p, g.mp, members, others, w.covs[g.covs:], rels) {
		// The kernel: the one caller of setPivot, once per group under SYMEX+
		// and once per relationship under plain SYMEX.
		for i, slot := range members {
			if i == 0 || !f.batch {
				w.k.setPivot(common, center)
				pinvs++
			}
			other, err := f.data.Series(others[i])
			if err != nil {
				return 0, err
			}
			rels[slot] = f.relationship(slot, p, w.k.fit(other))
		}
	}
	return pinvs, nil
}

// relationship wraps the transform fitted for an assignment slot of pivot p,
// in the slot's place in the fitter's slab when it has one.
func (f *fitter) relationship(slot int32, p Pivot, tr affine.Transform) *Relationship {
	pair := f.layout.assignments[slot].Pair
	if f.slab != nil {
		f.slab[slot] = Relationship{Pair: pair, Pivot: p, Transform: tr, Flipped: p.Common == pair.V}
		return &f.slab[slot]
	}
	return &Relationship{Pair: pair, Pivot: p, Transform: tr, Flipped: p.Common == pair.V}
}

// checkSeriesCount rejects more series than int32 can number the pairs of —
// the bound of the layout's triangular pair index.
func checkSeriesCount(n int) error {
	if n > 1<<16 {
		return fmt.Errorf("symex: %d series exceed the layout's int32 pair index", n)
	}
	return nil
}

// checkAssignment rejects a clustering that puts one of the n series in a
// cluster it has no centre for, before the exploration pivots on one: the
// layout's pivot index is dense over the clusters [0, k).
func checkAssignment(clustering *cluster.Result, n int) error {
	k := clustering.K()
	for id := range n {
		omega, err := clustering.Omega(timeseries.SeriesID(id))
		if err != nil {
			return err
		}
		if omega < 0 || omega >= k {
			return fmt.Errorf("symex: series %d is assigned to unknown cluster %d (k=%d)", id, omega, k)
		}
	}
	return nil
}

// checkCenters rejects a clustering whose centres do not all match an
// m-sample window, before anything reduces or indexes one.
func checkCenters(clustering *cluster.Result, m int) error {
	for l, c := range clustering.Centers {
		if len(c) != m {
			return fmt.Errorf("%w: cluster center %d has %d samples, window has %d",
				timeseries.ErrShapeMismatch, l, len(c), m)
		}
	}
	return nil
}
