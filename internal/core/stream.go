package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"affinity/internal/par"
	"affinity/internal/symex"
	"affinity/internal/timeseries"

	"affinity/internal/scape"
)

// This file implements the streaming update path of the engine: buffering
// newly arrived samples (Append) and folding them into a new epoch (Advance).
//
// The window length is fixed at build time: every Advance appends the
// buffered samples to the right edge of the window and evicts the same number
// of samples from the left edge.  The cluster structure (assignment ω and
// centers r_l) is frozen across epochs — the paper's AFCLST centers are
// unit-length directions that drift slowly relative to the window — so the
// pair→pivot assignment from the original SYMEX exploration, and with it the
// layout every epoch's relationship store is indexed by, stays valid.
//
// What an epoch costs, with n series, m samples, a slide of s samples, K
// cluster centers, P assigned pivots of k relationships each, D indexed
// D-measures and a stale set of size |stale|:
//
//	O(n·s)           write the s new samples of every series just past the
//	                 window's columns in the slab it is a view into
//	                 (SlideCopy): the next window is the same view shifted by
//	                 s, while the slab's headroom H = max(m/4, s) lasts
//	+ O(n·m)         and once every ⌊H/s⌋ + 1 epochs, when it runs out,
//	                 compact the window into a fresh slab.  The batch is
//	                 checked for non-finite samples as it is written and the
//	                 window carries its validation mark along, so nothing
//	                 downstream scans the n·m samples for NaN again
//	O(pairs·s)       slide the pair moments Σ x_u·x_v, one multiply-add pair
//	                 per pair and slid sample — only while a naive sweep has
//	                 materialised the column (kernel.PairMoments); an engine
//	                 nobody sweeps naively pays nothing, and the statistics
//	                 refresh epochs drop the column instead of sliding it
//	O(n·s·log m)     slide the sorted columns in place and hand them forward
//	                 to the new window, never copied (order statistics: median,
//	                 mode are then read off them, O(1) and one pass, never
//	                 re-sorted)
//	O(n·m)           self-moments: Σx, Σx², mean, variance once per series
//	                 and window, whoever asks — the summaries, the normalizers,
//	                 drift scoring, the index, the kernel mirror and every
//	                 shard behind a coordinator read the one two-pass
//	                 reduction memoised on the window (DataMatrix.Moments);
//	                 the K centers' are memoised on the clustering and cost
//	                 an epoch nothing
//	O(n·K·m)         the pivot cross moments Σxy and Σ(x−x̄)(y−ȳ) and
//	                 Σ(r−r̄)(s−s̄) of every series with its own center: one
//	                 form, one cross pass of every series against every
//	                 center per window and engine (kernel.CrossPanel,
//	                 memoised on the layout: symex.Result.PivotTerms and
//	                 CenterCovariances, which the summaries, drift scoring,
//	                 the calibration, the fits and the index read)
//	O(P·k)           drift scoring, a closed form per relationship found by
//	                 slot (no hashing)
//	O(|stale|·m)     re-fit the stale relationships: one centred dot
//	+ O(P)           cov(s_common, s_other) per stale pair (kernel.CovBlock,
//	                 four pairs of a pivot per tile; a full refit reduces
//	                 every pair in one pass over the pair triangle,
//	                 kernel.CovTriangle), then the moment form's
//	                 2×2 solve — a determinant per stale pivot, O(1) per
//	                 pair; only a pivot the exactness guard turns away pays
//	                 the kernel's pseudo-inverse and three dots per pair
//	O(|stale| + P'·k) count the stale pairs per pivot and re-derive the
//	                 sequence stores of the P' pivots that have one from the
//	                 relationship set; every other store is shared
//	O(P·k + inv)     re-derive the ξ-containers: project each pivot's entries
//	                 in the previous epoch's container order and repair the
//	                 inversions the new window caused (a fraction of a percent
//	                 of the entries at slide 1), a full refit's cold-built
//	                 stores too; only a pivot the previous index had no node
//	                 for sorts cold, O(k·log k)
//	O(n)             per-series statistics
//
// and, outside Advance, on the first index query or count of the epoch that
// names a D-measure:
//
//	O(P·k)           that D-measure's value column, one value per sequence
//	                 node — per queried measure, never O(P·k·D) up front
//
// and on the first naive median or mode query of a stream:
//
//	O(n·m·log m)     sort the window's columns, which every later Advance
//	                 slides (O(n·s·log m)) instead of sorting again
//
// and on the first naive sweep after a build or a statistics refresh epoch:
//
//	O(pairs·m)       materialise the pair moments with one DotBlock pass —
//	                 every StatsRefreshEvery epochs at most, where a naive base
//	                 column used to cost it every epoch
//
// One thing in an epoch is still map work: the stale set travels as drift
// flags → map[Pair]bool → sorted slice → per-pivot counts, O(|stale|) hashing
// — O(relationships) when a tight DriftBound marks most of them — because
// symex.RefitOptions.Stale and Index.Update's parameter are maps the frozen
// benchmark compiles against (ROADMAP item 15(iv) deletes the stale set with
// the partial refit it serves).
// Nothing else is, and nothing is allocated per relationship or per pivot: the
// relationship store is a slice cloned and overwritten at the stale slots, the
// per-pivot state is found by index, and an epoch's summaries, ξ keys,
// container orders and per-(pivot, measure) headers are one slab each.  The
// terms that remain proportional to P·k are arithmetic over contiguous memory.
// Most of those slabs are not even allocated: an epoch retired since the last
// Advance whose readers have all left is the spare (view.go), and the new
// epoch's relationship slots, index slabs, offsets and value columns, and its
// base columns when it fills them, are written into the spare's — on a full
// refit its relationships and sequence stores too, unless a younger epoch
// shares the spare's (DESIGN.md "Epoch lifetime").
//
// With DriftBound <= 0 every relationship is re-fitted, which makes an epoch
// bit-identical to a cold Build on the slid window with the frozen clustering:
// every quantity an answer reads is either a function of that window reduced
// from it afresh, or exact (the slid columns only bound, and the refinement
// behind them reads the window) — the property the streaming equivalence
// tests pin down, on every method.  A positive bound trades a controlled
// amount of approximation error for skipping most of the least-squares work
// on quiet windows.
//
// Queries never block on an Advance: the next epoch is assembled on the
// side and swapped in with one atomic store (see engineState).

// ErrStreamShape is returned when an appended tick does not match the
// engine's series count.
var ErrStreamShape = errors.New("core: tick length does not match series count")

// AdvanceInfo describes one epoch transition.
type AdvanceInfo struct {
	// Epoch is the epoch number after the transition.
	Epoch int
	// Slide is the number of samples folded into (and evicted from) the
	// window.  Zero means Advance was a no-op (nothing buffered).
	Slide int
	// RefitRelationships is the number of affine relationships re-fitted.
	RefitRelationships int
	// ReusedRelationships is the number carried over unchanged.
	ReusedRelationships int
	// RefitPivots is the number of stale pivots the m-sample kernel refit —
	// under SYMEX+ only those the moment form's exactness guard turned away,
	// each one pseudo-inverse.
	RefitPivots int
	// Stale is the drift-selected stale pair set handed to the refit (nil on
	// full-refit epochs).  A sharded coordinator unions the per-shard sets to
	// feed its own result cache's delta-repair bookkeeping.
	Stale map[timeseries.Pair]bool
	// FullRefit reports that every relationship was re-fitted this epoch
	// (DriftBound <= 0 or a whole-window slide): no stale set bounds the
	// changes, so cached results from earlier epochs cannot be delta-repaired
	// across it.
	FullRefit bool
	// Duration is the wall time of the epoch build.
	Duration time.Duration
}

// Append buffers one tick — one new sample per series, in series order — for
// the next Advance.  Append never blocks queries; it only contends with other
// writers.
func (e *Engine) Append(tick []float64) error {
	st := e.current()
	if len(tick) != st.data.NumSeries() {
		return fmt.Errorf("%w: got %d, want %d", ErrStreamShape, len(tick), st.data.NumSeries())
	}
	for i, v := range tick {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: tick value for series %d is NaN or Inf", i)
		}
	}
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	e.pending = append(e.pending, tick...)
	return nil
}

// PendingSamples returns the number of buffered ticks not yet folded into
// the window.
func (e *Engine) PendingSamples() int {
	n := e.current().data.NumSeries()
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	return len(e.pending) / n
}

// Advance folds every buffered tick into a new epoch: the window slides
// forward by the buffered count, stale affine relationships are re-fitted,
// the summaries are recomputed, the SCAPE index is updated incrementally, and
// the new epoch is swapped in atomically.  Queries issued concurrently keep serving the previous epoch
// until the swap and the next epoch afterwards.  With an empty buffer
// Advance is a no-op.
func (e *Engine) Advance() (AdvanceInfo, error) {
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	old := e.current()
	n := old.data.NumSeries()
	slide := len(e.pending) / n
	if slide == 0 {
		return AdvanceInfo{Epoch: old.epoch}, nil
	}

	// Transpose the buffered ticks into per-series batches.  The buffer is
	// the engine's: SlideCopy, the sketch slide and the pair-moment slide
	// only read it, so the next Advance reuses it.
	batch := e.batch.columns(n, slide)
	for t := range slide {
		for v, x := range e.pending[t*n : (t+1)*n] {
			batch[v][t] = x
		}
	}

	newData, err := old.data.SlideCopy(batch)
	if err != nil {
		return AdvanceInfo{}, err
	}
	info, err := e.advanceTo(old, newData, batch, slide)
	if err != nil {
		return AdvanceInfo{}, err
	}
	e.pending = e.pending[:0]
	return info, nil
}

// AdvanceShared folds an externally prepared window slide into a new epoch:
// the caller supplies the already-slid data matrix and the per-series batch
// columns it was slid with.  A sharded coordinator uses this to transpose and
// SlideCopy the incoming ticks exactly once and then advance every shard
// engine in parallel against the same shared (read-only) inputs; each shard's
// epoch assembly — drift scoring, refit, index update, sketch and pair-moment
// slides — is identical to what its own Advance would have done with the same
// ticks.  It must not be mixed with Append on the same engine: ticks buffered
// through Append are ignored (and kept) by AdvanceShared.
func (e *Engine) AdvanceShared(newData *timeseries.DataMatrix, batch [][]float64) (AdvanceInfo, error) {
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	old := e.current()
	n := old.data.NumSeries()
	if len(batch) != n {
		return AdvanceInfo{}, fmt.Errorf("%w: batch has %d series, want %d", ErrStreamShape, len(batch), n)
	}
	slide := len(batch[0])
	for v := range batch {
		if len(batch[v]) != slide {
			return AdvanceInfo{}, fmt.Errorf("%w: ragged batch column %d", ErrStreamShape, v)
		}
	}
	if slide == 0 {
		return AdvanceInfo{Epoch: old.epoch}, nil
	}
	if newData.NumSeries() != n || newData.NumSamples() != old.data.NumSamples() {
		return AdvanceInfo{}, fmt.Errorf("%w: slid window is %dx%d, want %dx%d", ErrStreamShape,
			newData.NumSamples(), newData.NumSeries(), old.data.NumSamples(), n)
	}
	return e.advanceTo(old, newData, batch, slide)
}

// advanceTo assembles and publishes the next epoch from an already-slid
// window: everything after the tick transpose and SlideCopy, shared by
// Advance and AdvanceShared.  Callers hold streamMu.
func (e *Engine) advanceTo(old *engineState, newData *timeseries.DataMatrix, batch [][]float64, slide int) (AdvanceInfo, error) {
	start := time.Now()
	m := old.data.NumSamples()
	// The spare is an epoch retired since the last Advance whose readers have
	// all left; the new epoch's index, relationship slots and base columns are
	// built into its memory.
	spare := e.takeSpare()

	st := &engineState{
		data: newData,
		// The per-series statistics are the slid window's own moments, reduced
		// by whichever consumer of this window asks first (a coordinator's
		// shards share one reduction) and never slid: a slid sum is not the
		// bits a cold build on the same window reads.
		seriesMoments: newData.Moments(),
		par:           e.cfg.Parallelism,
		epoch:         old.epoch + 1,
		// The restricted pair universe (if any) is frozen with the pair→pivot
		// assignment it was derived from.
		pairs:   old.pairs,
		pairPos: old.pairPos,
	}
	parallelism := e.cfg.Parallelism
	// The refresh epochs — a whole-window slide, or the periodic schedule —
	// re-reduce what the other epochs slide (the pair-moment column, the
	// sketches).
	refresh := slide >= m || st.epoch%e.cfg.Stream.StatsRefreshEvery == 0

	slideDone := time.Now()

	stale, err := st.relAndDerived(old, e, slide, spare.rel)
	if err != nil {
		return AdvanceInfo{}, err
	}
	refitDone := time.Now()

	if !e.cfg.SkipIndex {
		// Incremental maintenance: the new index shares the sequence store of
		// every pivot no stale pair is assigned to and re-derives the rest from
		// the relationship set.  A nil stale set (every relationship was refit)
		// leaves nothing to share and builds cold; either way the resulting
		// index answers queries byte-identically to a from-scratch Build.
		idx, us, err := old.index.Update(newData, st.rel, stale, scape.UpdateOptions{Parallelism: parallelism, Recycle: spare.index})
		if err != nil {
			return AdvanceInfo{}, fmt.Errorf("core: updating SCAPE index: %w", err)
		}
		st.index = idx
		e.stream.addUpdate(us, stale == nil)
		st.info.IndexBuilt = true
		st.info.IndexSequenceNodes = st.index.Stats().SequenceNodes
		st.info.IndexPivotNodes = st.index.Stats().Pivots
	}
	indexDone := time.Now()

	// Sketch maintenance: a series' DFT depends on its window and on no affine
	// transform, so whatever the refit did, every series slides its kept
	// coefficients with the sliding-DFT recurrence, O(slide·d).  The periodic
	// statistics refreshes (and a whole-window slide) rebuild every sketch from
	// a full FFT, which re-picks the kept coefficients and bounds the
	// recurrence's rounding drift.
	if old.sketch != nil {
		kern, mom, err := st.naiveKernel()
		if err != nil {
			return AdvanceInfo{}, err
		}
		oldCol := func(v int) []float64 {
			col, _ := old.data.Series(timeseries.SeriesID(v)) // ids are in range by construction
			return col
		}
		st.sketch = old.sketch.Advance(kern, mom, oldCol, batch, slide, refresh, nil, parallelism)
	}

	st.finishPlanner(e.cfg)

	// The result cache is shared across epochs — entries survive the swap and
	// are carried forward by delta repair.  Telling it about the stale set
	// before the swap means no query can observe the new epoch without the
	// cache knowing which pairs changed beyond the refit bound.
	st.cache = old.cache
	st.cache.OnAdvance(st.epoch, SortedStalePairs(stale), stale == nil)
	st.cols = e.newBaseColumns(spare.cols)

	// The pair-moment column, the naive sweeps' other bound provider, slides
	// while some sweep has materialised it: O(slide) per pair.  The refresh
	// epochs drop it, which bounds its rounding drift; the next naive sweep
	// materialises a fresh one.
	st.moments = e.newMomentColumn()
	if !refresh {
		st.slideMoments(old, batch, slide, parallelism)
	}

	st.info.AdvanceDuration = time.Since(start)
	e.stream.Advances++
	e.stream.LastSlidePhase = slideDone.Sub(start)
	e.stream.LastRefitPhase = refitDone.Sub(slideDone)
	e.stream.LastIndexPhase = indexDone.Sub(refitDone)
	e.stream.LastPlannerPhase = time.Since(indexDone)
	info := AdvanceInfo{
		Epoch:               st.epoch,
		Slide:               slide,
		RefitRelationships:  st.info.RefitRelationships,
		ReusedRelationships: st.info.ReusedRelationships,
		RefitPivots:         st.info.PseudoInverseCount,
		Stale:               stale,
		FullRefit:           stale == nil,
		Duration:            st.info.AdvanceDuration,
	}
	e.cur.Store(st)
	e.retire(old)
	return info, nil
}

// SortedStalePairs flattens a stale set into canonical (U,V) order, the order
// every repair evaluation and determinism check relies on.  nil in, nil out.
func SortedStalePairs(stale map[timeseries.Pair]bool) []timeseries.Pair {
	if stale == nil {
		return nil
	}
	out := make([]timeseries.Pair, 0, len(stale))
	for p := range stale {
		out = append(out, p)
	}
	slices.SortFunc(out, timeseries.ComparePairs)
	return out
}

// relAndDerived performs the epoch's relationship maintenance: it rebuilds
// the window-derived quantities (pivot summaries, calibration), measures each old relationship's drift on the new window,
// re-fits the stale ones and installs the resulting relationship set.
// spare, when non-nil, is a recycled epoch's relationship result for the new
// one's slots.
//
// It returns the stale set handed to symex.Refit (nil when everything was
// refit), which the caller threads into the incremental index update.
func (st *engineState) relAndDerived(old *engineState, e *Engine, slide int, spare *symex.Result) (map[timeseries.Pair]bool, error) {
	cfg := e.cfg
	parallelism := cfg.Parallelism
	// The pivot assignment is frozen, so every summary and per-series
	// quantity can be rebuilt before the refit decision: none of them depend
	// on the transforms.
	st.rel = old.rel
	if err := st.buildDerived(parallelism); err != nil {
		return nil, err
	}

	// Select stale relationships by measuring each stale-candidate transform
	// against the new window: the transform predicts the variance of the
	// pair's non-common series from the new pivot summary (Eq. 6 restricted
	// to the diagonal), and the true variance is the window's memoised
	// one.  A relative discrepancy above DriftBound marks the
	// relationship stale.  This is the O(1)-per-pair surrogate for the LSFD
	// drift: a transform whose propagated second column no longer matches
	// the observed series cannot have a small LSFD to the current sequence
	// pair matrix.
	//
	// DriftBound <= 0 refits everything; a slide of at least the window
	// length invalidates everything too, since no old fit saw any current
	// sample.
	var stale map[timeseries.Pair]bool
	bound := cfg.Stream.DriftBound
	if bound > 0 && slide < st.data.NumSamples() {
		// Drift scoring is O(1) per relationship and independent across
		// relationships: score into a flag slice aligned with the assignment
		// slots, then collect — the stale set is identical at any
		// parallelism.  The walk goes pivot by pivot through the layout, so a
		// relationship and its pivot's summary are both found by index.
		layout := old.rel.Layout()
		flags := e.driftFlags(len(layout.Assignments()))
		err := par.DoBlocks(len(layout.Pivots()), parallelism, func(_ int, blk par.Block) error {
			for pi := blk.Lo; pi < blk.Hi; pi++ {
				cov := st.summaries[pi].Cov
				for _, slot := range layout.PivotSlots(pi) {
					rel := old.rel.At(int(slot))
					flags[slot] = relationshipDrift(rel, cov, st.seriesMoments.Variance[rel.Other()]) > bound
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		stale = make(map[timeseries.Pair]bool)
		for slot, a := range layout.Assignments() {
			if flags[slot] {
				stale[a.Pair] = true
			}
		}
	}

	rel, rs, err := symex.Refit(st.data, old.rel, symex.RefitOptions{
		Stale:       stale,
		Parallelism: parallelism,
		Recycle:     spare,
	})
	if err != nil {
		return nil, fmt.Errorf("core: refitting relationships: %w", err)
	}
	st.rel = rel

	// Epoch bookkeeping on top of the carried-over structural counters.
	st.info = old.info
	st.info.NumSamples = st.data.NumSamples()
	st.info.NumRelationships = rel.Stats.NumRelationships
	st.info.NumPivots = rel.Stats.NumPivots
	st.info.Epoch = st.epoch
	st.info.RefitRelationships = rs.Refit
	st.info.ReusedRelationships = rs.Reused
	st.info.PseudoInverseCount = rs.PivotInverses
	st.info.PseudoInverseHits = rel.Stats.PseudoInverseCacheHits
	return stale, nil
}

// relationshipDrift returns the relative discrepancy between the variance of
// the relationship's non-common series as predicted by its (possibly stale)
// transform on the current pivot summary's covariance terms, and the series'
// true variance from the window's moments.  A fresh fit has a small
// discrepancy (only the fit residual); a transform invalidated by window
// movement drifts away from the observed variance.  The ratio is scale-free:
// a window scaled by a power of two scores the same bits.  A constant series
// (true variance 0) has drifted iff the transform predicts any variance.
func relationshipDrift(rel *symex.Relationship, cov [3]float64, trueVar float64) float64 {
	v := rel.Transform.PropagateSecondVariance(cov)
	if trueVar == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(v-trueVar) / trueVar
}
