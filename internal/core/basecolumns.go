package core

import (
	"sync"
	"sync/atomic"

	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/qcache"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// This file holds the epoch base columns of the affine method.  Every
// D-measure derives from one of two base T-measures, and the online setting is
// clients re-asking a few measures every tick: across the affine sweeps of one
// epoch the expensive part — the base value of every pair of the universe,
// propagated through the pair's relationship — is the same two vectors over
// and over.  A cache-enabled engine therefore evaluates each base once per
// epoch into a column of len(universe) float64s and lets every later affine
// sweep of that base at that epoch — any derived measure, interval or top-k,
// single or batched — only derive, compact and offer.
//
// A column belongs to one immutable engineState and dies with it: no
// invalidation, no Advance hook, nothing in snapshots.  Its values are the
// ones fillBase streams through the per-chunk buffer of a cache-off engine,
// so whether a sweep reads a column changes its latency and never its answer.
// Not memoised, deliberately: solo (non-BatchGroupable) groups, whose base
// evaluation is their own; MEC; and PairwiseSweepNaive/Affine, which are the
// paper's timed W_N/W_A sweeps.  Shard engines run cache-disabled and so keep
// no columns.
//
// There is no naive column any more.  A naive base value costs O(m) and an
// epoch's window differs from the last one's by the slide, so recomputing a
// naive column per epoch was the last O(pairs·m) term of the serving path; the
// engine now carries Σ x_u·x_v across epochs in O(slide) per pair
// (stats.PairMoments) and uses it as a bound, not as a value — the sweep stage
// (sketchsweep.go) classifies against it and sends only the pairs it cannot
// decide, and the rows whose values the cache stores, to the kernels.

// baseKey identifies one shared base computation of a sweep: specs that
// withhold BatchGroupable get a solo group keyed by their own identity
// (solo < 0 otherwise).
type baseKey struct {
	base   stats.Measure
	method Method
	solo   stats.Measure
}

// columnBudgetShare is the fraction of the result cache's byte budget
// (qcache.Options.MaxBytes) an epoch's columns may occupy together, on top
// of the cache's own entries.  A column that does not fit is not kept and its
// sweeps stream, exactly as on a cache-off engine.
const columnBudgetShare = 4

// Values of Actual.BaseValues and plan.Plan.BaseValues.
const (
	baseFilled = "filled"
	baseReused = "reused"
)

// sweepCounters are an engine's cumulative sweep-stage counters: base-column
// fills and reuses (StreamStats.SweepBaseFills / SweepBaseReuses) and the
// pair-moment column's materialisations, sweeps and refined pairs
// (StreamStats.MomentFills / MomentSweeps / MomentRefinedPairs).
type sweepCounters struct {
	fills, reuses                            atomic.Int64
	momentFills, momentSweeps, momentRefined atomic.Int64
}

// baseColumns is one epoch's set of base columns.
type baseColumns struct {
	counters *sweepCounters
	budget   int64 // bytes; zero (cache disabled) keeps nothing

	mu   sync.Mutex
	used int64
	cols map[baseKey]*baseColumn
}

// newBaseColumns returns the empty column set of a new epoch of e.
func (e *Engine) newBaseColumns(cache *qcache.Cache) *baseColumns {
	return &baseColumns{counters: &e.sweep, budget: cache.MaxBytes() / columnBudgetShare}
}

// baseColumn is filled by the first sweep that asks for it; concurrent
// sweeps of the same base wait for that fill instead of repeating it.
type baseColumn struct {
	once   sync.Once
	values []float64
	err    error
}

// baseColumn returns the epoch's column of an affine key — base values of the
// whole pair universe in canonical order — and whether this call filled it or
// found it; a nil column means the group is not memoised and the caller
// evaluates chunk by chunk.
func (e *engineState) baseColumn(key baseKey) ([]float64, string, error) {
	bc := e.cols
	if key.solo >= 0 || bc.budget == 0 {
		return nil, "", nil
	}
	n := e.numUniversePairs()
	bc.mu.Lock()
	col := bc.cols[key]
	if col == nil {
		if need := 8 * int64(n); bc.used+need <= bc.budget {
			bc.used += need
			col = &baseColumn{}
			if bc.cols == nil {
				bc.cols = make(map[baseKey]*baseColumn)
			}
			bc.cols[key] = col
		}
	}
	bc.mu.Unlock()
	if col == nil {
		return nil, "", nil
	}
	source := baseReused
	col.once.Do(func() {
		source = baseFilled
		col.values, col.err = e.fillAffineColumn(measure.Lookup(key.base))
	})
	if col.err != nil {
		return nil, "", col.err
	}
	if source == baseFilled {
		bc.counters.fills.Add(1)
	} else {
		bc.counters.reuses.Add(1)
	}
	return col.values, source, nil
}

// fillAffineColumn evaluates an affine base over the whole pair universe.  On
// the full universe it goes pivot by pivot: the spec's moment matrix is
// assembled once per pivot instead of once per pair, and each relationship of
// the pivot propagates it to its pair's position — the same function on the
// same operands as affinePairBase, so the same bits.  Pairs without a live
// relationship (unassigned, or pruned by Config.MaxLSFD) are left to that
// per-pair evaluator, as is every pair of a restricted universe, whose
// positions are not the pair ranks.
func (e *engineState) fillAffineColumn(baseSp *measure.Spec) ([]float64, error) {
	values := make([]float64, e.numUniversePairs())
	layout := e.rel.Layout()
	pivoted := e.pairs == nil
	if pivoted {
		assignments := layout.Assignments()
		_ = par.DoBlocks(len(layout.Pivots()), e.par, func(_ int, blk par.Block) error {
			for pi := blk.Lo; pi < blk.Hi; pi++ {
				moment := baseSp.Moment(e.summaries[pi].terms)
				for _, slot := range layout.PivotSlots(pi) {
					if rel := e.rel.At(int(slot)); rel != nil {
						values[e.data.PairRank(assignments[slot].Pair)] = rel.Transform.PropagateMoment(moment)
					}
				}
			}
			return nil
		})
		if e.table.FallbackPairs == 0 {
			return values, nil
		}
	}
	return values, e.forUniverseChunks(e.par, func(lo int, chunk []timeseries.Pair) error {
		for i, pair := range chunk {
			if slot, ok := layout.Slot(pair); pivoted && ok && e.rel.At(slot) != nil {
				continue // propagated above
			}
			v, err := e.affinePairBase(baseSp, pair)
			if err != nil {
				return err
			}
			values[lo+i] = v
		}
		return nil
	})
}

// fillBase writes the base T-measure values of pairs into t with the key's
// method: the blocked kernels for naive (scalar for an extension base without
// one), the propagation through the pair's affine relationship for affine.
// It is the sweep stage's exact evaluator.
func (e *engineState) fillBase(key baseKey, pairs []timeseries.Pair, t []float64) error {
	if key.method == MethodNaive {
		kern, mom, err := e.naive.Kernel()
		if err != nil {
			return err
		}
		if baseBlock := kern.BaseBlock(key.base); baseBlock != nil {
			baseBlock(mom, pairs, t)
			return nil
		}
		for i, pair := range pairs {
			v, err := e.naive.PairValue(key.base, pair)
			if err != nil {
				return err
			}
			t[i] = v
		}
		return nil
	}
	baseSp := measure.Lookup(key.base)
	for i, pair := range pairs {
		v, err := e.affinePairBase(baseSp, pair)
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
