package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// This file holds the epoch base columns: the one source of affine base
// values for sweeps, on every engine.  Every D-measure derives from one of two
// base T-measures, and the online setting is clients re-asking a few measures
// every tick: across the affine sweeps of one epoch the expensive part — the
// base value of every pair of the universe, propagated through the pair's
// relationship (the paper's W_A, Eqs. 5–7) — is the same two vectors over and
// over.  The first affine sweep of a base at an epoch therefore evaluates it
// into a column of len(universe) float64s, and every affine sweep of that base
// at that epoch — any derived measure, interval or top-k, single or batched —
// only derives, compacts and offers.
//
// A column belongs to one immutable engineState and dies with it: no
// invalidation, no Advance hook, nothing configured, nothing in snapshots.
// Only its buffer outlives it, when the epoch is recycled: a later epoch's
// fill of the same column writes every position of it.  An
// engine nobody sweeps by the affine method allocates none.  A column's values
// are the bits of the single-pair evaluator affinePairBase (same function,
// same operands), which stays the source for MEC, cache repair and the values
// the cache stores.
//
// The naive covariance column is the fit's.  A full SYMEX+ fit reduces
// cov(s_u, s_v) of every assigned pair for the moment form with the very
// kernel fillBase runs (symex.Result.PairCov), so at an epoch whose fit was
// full and covers the universe the first naive sweep of a covariance-base
// measure scatters those values into canonical order (fitCovColumn) and every
// naive covariance and correlation query of the epoch — interval, top-k,
// batch, MEC and PairValue — reads it like an affine column: no bounds, no
// kernels.  Elsewhere — the dot-product base, and every epoch after a partial
// refit — a naive base value costs O(m) and an epoch's window differs from the
// last one's by the slide, so the engine carries Σ x_u·x_v across epochs in
// O(slide) per pair (kernel.PairMoments) and uses it as a bound, not as a
// value — the sweep stage (sketchsweep.go) classifies against it and sends
// only the pairs it cannot decide, and the rows whose values the cache stores,
// to the kernels (fillBase).
//
// The naive bounds of a sketch-enabled engine are columns too.  A pair's
// coefficient-sketch bound on a base depends on the epoch and the base, never
// on the query, so the first sketched naive sweep or top-k of a base at an
// epoch evaluates sketch.(*Set).BoundBlock over the universe into a bound
// column (lo and hi per pair, NaN where the sketch has no bound), and every
// later one of that base at that epoch reads it.

// baseKey identifies one shared base computation of a sweep.
type baseKey struct {
	base   measure.Measure
	method Method
}

// Values of Actual.BaseValues and plan.Plan.BaseValues: an affine sweep filled
// or reused the epoch's base column, or a naive sweep read the fit's
// covariance column; an L-measure query filled or reused the index's location
// column.
const (
	BaseFilled = "filled"
	BaseReused = "reused"
	BaseFit    = "fit"
)

// sweepCounters are an engine's cumulative sweep-stage counters: base-column
// fills and reuses (StreamStats.SweepBaseFills / SweepBaseReuses), the
// pair-moment column's materialisations, sweeps and refined pairs
// (StreamStats.MomentFills / MomentSweeps / MomentRefinedPairs) and the
// sketch-bound column fills (read by tests only).
type sweepCounters struct {
	fills, reuses                            atomic.Int64
	momentFills, momentSweeps, momentRefined atomic.Int64
	boundFills                               atomic.Int64
}

// baseColumns is one epoch's affine base columns and sketch-bound columns,
// one slot each per base T-measure, and its naive covariance column.
type baseColumns struct {
	counters             *sweepCounters
	cov, dot             baseColumn
	covBounds, dotBounds boundColumn
	fitCov               baseColumn
	// spare is the columns of the recycled epoch this one was built into,
	// held weakly: a fill writes into the spare's buffer of the same column
	// unless a collection has freed it, and an epoch that never fills a
	// column keeps nothing alive for it.
	spare weak.Pointer[baseColumns]
}

// newBaseColumns returns an epoch's unfilled columns; spare, when non-nil,
// is a recycled epoch's, whose buffers the fills may write into.
func (e *Engine) newBaseColumns(spare *baseColumns) *baseColumns {
	c := &baseColumns{counters: &e.sweep}
	if spare != nil {
		c.spare = weak.Make(spare)
	}
	return c
}

// noSpare stands in for a spare that is gone: every buffer in it is nil.
var noSpare baseColumns

// recycled returns the spare columns, or noSpare when there are none.
func (c *baseColumns) recycled() *baseColumns {
	if s := c.spare.Value(); s != nil {
		return s
	}
	return &noSpare
}

// baseColumn is filled by the first sweep that asks for it; concurrent
// sweeps of the same base wait for that fill instead of repeating it.
type baseColumn struct {
	once   sync.Once
	values []float64
	err    error
}

// baseColumn returns the epoch's column of an affine base — its values over
// the whole pair universe in canonical order — and whether this call filled it
// or found it.
func (e *engineState) baseColumn(base measure.Measure) ([]float64, string, error) {
	var pick func(*baseColumns) *baseColumn
	switch base {
	case measure.Covariance:
		pick = func(c *baseColumns) *baseColumn { return &c.cov }
	case measure.DotProduct:
		pick = func(c *baseColumns) *baseColumn { return &c.dot }
	default:
		return nil, "", fmt.Errorf("core: no base column for %v", base)
	}
	col := pick(e.cols)
	source := BaseReused
	col.once.Do(func() {
		source = BaseFilled
		col.values, col.err = e.fillAffineColumn(measure.Lookup(base), pick(e.cols.recycled()).values)
	})
	if col.err != nil {
		return nil, "", col.err
	}
	if source == BaseFilled {
		e.cols.counters.fills.Add(1)
	} else {
		e.cols.counters.reuses.Add(1)
	}
	return col.values, source, nil
}

// boundColumn is an epoch's sketch bounds on one base over the pair universe
// in canonical order, filled by the first sketched sweep of the base.
type boundColumn struct {
	once   sync.Once
	lo, hi []float64
}

// sketchBounds returns the epoch's sketch-bound column of a base, filling it
// on first use with the bits BoundBlock gives each pair (mom is the naive
// kernel's moments), or nil for a base the sketch cannot bound.  The fill
// fans out over the universe, so callers resolve the column before their own
// fan-out, never inside a worker.
func (e *engineState) sketchBounds(base measure.Measure, mom *kernel.Moments) *boundColumn {
	var pick func(*baseColumns) *boundColumn
	switch base {
	case measure.Covariance:
		pick = func(c *baseColumns) *boundColumn { return &c.covBounds }
	case measure.DotProduct:
		pick = func(c *baseColumns) *boundColumn { return &c.dotBounds }
	default:
		return nil
	}
	col := pick(e.cols)
	col.once.Do(func() {
		n := e.numUniversePairs()
		spare := pick(e.cols.recycled())
		lo, hi := slices.Grow(spare.lo[:0], n)[:n], slices.Grow(spare.hi[:0], n)[:n]
		_ = e.forUniverseChunks(e.par, func(at int, chunk []timeseries.Pair) error {
			cLo, cHi := lo[at:at+len(chunk)], hi[at:at+len(chunk)]
			if !e.sketch.BoundBlock(base, mom, chunk, cLo, cHi) {
				for i := range cLo {
					cLo[i], cHi[i] = math.NaN(), math.NaN()
				}
			}
			return nil
		})
		col.lo, col.hi = lo, hi
		e.cols.counters.boundFills.Add(1)
	})
	return col
}

// fitCovColumn returns the epoch's exact naive covariance column: the pair
// covariances the epoch's full fit reduced (symex.Result.PairCov) scattered
// into canonical universe order — for every pair the bits fillBase's CovBlock
// gives it, since the kernel's products commute.  It is nil after a partial
// refit and wherever the assignments do not cover the universe (a SYMEX+ run
// capped by symex.Options.MaxRelationships); a restricted universe is its
// assignments, so a shard has one whenever its fit was full.
func (e *engineState) fitCovColumn() []float64 {
	col := &e.cols.fitCov
	col.once.Do(func() {
		covs := e.rel.PairCov()
		if covs == nil || len(covs) != e.numUniversePairs() {
			return
		}
		col.values = slices.Grow(e.cols.recycled().fitCov.values[:0], len(covs))[:len(covs)]
		for slot, c := range covs {
			col.values[e.columnPos(e.pairPos, int32(slot))] = c
		}
	})
	return col.values
}

// naiveColumn returns the column a naive sweep reads a base's values from —
// the fit's covariance column for the covariance base — or nil when the sweep
// evaluates them.
func (e *engineState) naiveColumn(base measure.Measure) []float64 {
	if base != measure.Covariance {
		return nil
	}
	return e.fitCovColumn()
}

// columnPos returns the position of an assignment slot's pair in a column over
// the pair universe: pos[slot] where a position table is given, the pair's
// rank in the full universe otherwise.
func (e *engineState) columnPos(pos []int32, slot int32) int {
	if pos != nil {
		return int(pos[slot])
	}
	return timeseries.PairRank(e.data.NumSeries(), e.rel.Layout().Assignments()[slot].Pair)
}

// propagate is the W_A propagation loop (Eqs. 5–7), the only one: pivot by
// pivot, the pivot's moment matrix is taken once and every relationship of
// the pivot propagates it in O(1) to its pair's position in values —
// pos[slot] where a position table is given, the pair's rank in the full
// universe otherwise.  Positions of pairs without a relationship are left
// alone.
func (e *engineState) propagate(moment func(pi int) measure.Moment, pos []int32, values []float64) {
	layout := e.rel.Layout()
	_ = par.DoBlocks(len(layout.Pivots()), e.par, func(_ int, blk par.Block) error {
		for pi := blk.Lo; pi < blk.Hi; pi++ {
			mom := moment(pi)
			for _, slot := range layout.PivotSlots(pi) {
				values[e.columnPos(pos, slot)] = e.rel.At(int(slot)).Transform.PropagateMoment(mom)
			}
		}
		return nil
	})
}

// fillAffineColumn evaluates an affine base over the epoch's pair universe:
// the propagation loop over the cached pivot summaries — the same function on
// the same operands as affinePairBase, so the same bits — and, for the pairs
// without a relationship (unassigned, as in a partial layout), the naive
// evaluator affinePairBase falls back to.  Every position is written,
// so spare, a recycled buffer the column is built into when its capacity
// allows, may hold anything.
func (e *engineState) fillAffineColumn(baseSp *measure.Spec, spare []float64) ([]float64, error) {
	values := slices.Grow(spare[:0], e.numUniversePairs())[:e.numUniversePairs()]
	e.propagate(func(pi int) measure.Moment { return baseSp.Moment(e.summaries[pi]) }, e.pairPos, values)
	if e.table.FallbackPairs == 0 {
		return values, nil
	}
	layout := e.rel.Layout()
	return values, e.forUniverseChunks(e.par, func(lo int, chunk []timeseries.Pair) error {
		for i, pair := range chunk {
			if _, ok := layout.Slot(pair); ok {
				continue // propagated above
			}
			v, err := e.naive.PairValue(baseSp.ID, pair)
			if err != nil {
				return err
			}
			values[lo+i] = v
		}
		return nil
	})
}

// fillBase writes the naive base T-measure values of pairs into t: the blocked
// kernels (scalar for an extension base without one).  It is the naive sweeps'
// exact evaluator.
func (e *engineState) fillBase(base measure.Measure, pairs []timeseries.Pair, t []float64) error {
	kern, mom, err := e.naive.Kernel()
	if err != nil {
		return err
	}
	if baseBlock := kern.BaseBlock(base); baseBlock != nil {
		baseBlock(mom, pairs, t)
		return nil
	}
	for i, pair := range pairs {
		v, err := e.naive.PairValue(base, pair)
		if err != nil {
			return err
		}
		t[i] = v
	}
	return nil
}

// universeChunk returns positions [lo, hi) of the epoch's pairwise query
// universe in canonical order: a slice of the restricted list, or the pairs of
// the full universe enumerated into scratch (which must hold hi−lo pairs) —
// sweeps walk the n(n−1)/2 universe without ever materializing it.
func (e *engineState) universeChunk(lo, hi int, scratch []timeseries.Pair) []timeseries.Pair {
	if e.pairs != nil {
		return e.pairs[lo:hi]
	}
	return e.data.PairsAt(lo, scratch[:hi-lo])
}
