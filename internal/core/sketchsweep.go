package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// This file is the sweep executor: the one filter-and-refine stage every
// sweep-method (naive/affine) pairwise query runs through,
//
//	classify → lift → refine → compact
//
// per 256-pair chunk of the query universe.  Items group by
// (base T-measure, method); a group's bound providers put an interval around
// the base value of every pair without touching a raw sample, Spec.BoundValue
// lifts it to each item's measure, and the pair is classified against the
// item's predicate: definitely in, definitely out, or ambiguous.  Only what is
// left — the ambiguous sliver, plus on a cache-enabled engine the rows that are
// kept, whose values the cache stores — reaches the exact evaluator, once per
// group for the union of what its items need.  The providers of a naive group,
// in the order they are asked:
//
//   - the DFT coefficient sketch (internal/sketch) where Config.Sketch is on:
//     a Parseval bound that settles most pairs, evaluated — O(d) per pair —
//     once per base and epoch into a bound column (basecolumns.go) that every
//     sweep of the base reads;
//   - the slid pair-moment column (kernel.PairMoments) on whatever is still
//     ambiguous: Σ x_u·x_v carried from epoch to epoch in O(slide) per pair,
//     within a relative 1e-9 of the kernels' value, so what it leaves are the
//     pairs within rounding distance of an endpoint.
//
// A group with no provider — the affine method, whose base values are the
// epoch's base column (basecolumns.go: every relationship's propagation,
// evaluated once per base and epoch), a naive group on the covariance base at
// an epoch whose full fit left the naive covariance column (the fit's
// CovBlock values, the kernels' own bits), or a measure whose transform has
// no liftable bound — is the degenerate case: every pair is ambiguous and the
// whole chunk is evaluated, or read off the group's column.
//
// Because every bound is definite (padded past every floating-point error
// source, DESIGN.md "Slid pair moments") and the pairs that need a value get
// it from the very kernels, in the very order, an unfiltered sweep would have
// used, what the filter changes is latency and counters, never a result bit —
// the property TestSketchSweepParity and the operation lattice
// (lattice_test.go) pin with Float64bits comparisons against the scalar
// oracle.

// buildSketch computes the epoch's sketch set from the naive kernel mirror —
// the same contiguous columns and hoisted moments the exact sweeps read.
func (st *engineState) buildSketch(opts sketch.Options, parallelism int, counters *sketch.Counters) error {
	kern, mom, err := st.naive.Kernel()
	if err != nil {
		return err
	}
	st.sketch = sketch.Build(kern, mom, opts, parallelism, counters)
	return nil
}

// momentColumn is an epoch's handle on the engine's slid pair-moment column:
// Σ x_u·x_v over the pair universe in canonical (universeChunk) order.  The
// column is materialised by the first naive sweep that needs it, carried by
// Advance while the previous epoch has it, and dropped on the statistics
// refresh epochs — so its rounding drift is bounded and an engine that stops
// sweeping naively stops paying for it.  Nothing of it is configured and
// nothing is persisted.
type momentColumn struct {
	counters *sweepCounters
	once     sync.Once
	col      atomic.Pointer[kernel.PairMoments]
	err      error
}

func (e *Engine) newMomentColumn() *momentColumn { return &momentColumn{counters: &e.sweep} }

// pairMoments returns the epoch's pair-moment column, materialising it with
// one DotBlock pass if Advance did not carry one; nil when the window is too
// long for the column's padding to cover the kernels' rounding.
func (e *engineState) pairMoments() (*kernel.PairMoments, error) {
	mc := e.moments
	if pm := mc.col.Load(); pm != nil {
		return pm, nil
	}
	mc.once.Do(func() {
		if e.data.NumSamples() > kernel.MaxPairMomentWindow {
			return
		}
		kern, mom, err := e.naive.Kernel()
		if err != nil {
			mc.err = err
			return
		}
		dot := make([]float64, e.numUniversePairs())
		_ = e.forUniverseChunks(e.par, func(lo int, chunk []timeseries.Pair) error {
			kern.DotBlock(mom, chunk, dot[lo:lo+len(chunk)])
			return nil
		})
		mc.col.Store(kernel.NewPairMoments(dot, mom.SqNorm, e.data.NumSamples()))
		mc.counters.momentFills.Add(1)
	})
	return mc.col.Load(), mc.err
}

// slideMoments carries the previous epoch's pair-moment column — if a sweep
// has materialised one — across the slide that produced st's window.
func (st *engineState) slideMoments(old *engineState, batch [][]float64, slide, parallelism int) {
	prev := old.moments.col.Load()
	if prev == nil {
		return
	}
	next := prev.Slid(slide, st.data.Moments().SqNorm)
	if next == nil {
		return
	}
	evicted := make([][]float64, len(batch))
	for v := range evicted {
		col, _ := old.data.Series(timeseries.SeriesID(v)) // ids are in range by construction
		evicted[v] = col[:slide]
	}
	_ = st.forUniverseChunks(parallelism, func(lo int, chunk []timeseries.Pair) error {
		next.SlideChunk(prev, lo, chunk, batch, evicted)
		return nil
	})
	st.moments.col.Store(next)
}

// forUniverseChunks calls fn for every kernel-sized chunk of the pair
// universe — positions [lo, lo+len(chunk)) — sharded by row blocks.  A chunk
// lives in the block's pooled scratch: fn must not keep it.
func (e *engineState) forUniverseChunks(parallelism int, fn func(lo int, chunk []timeseries.Pair) error) error {
	return par.DoBlocks(e.numUniversePairs(), parallelism, func(_ int, blk par.Block) error {
		sc, _ := blockScratchPool.Get()
		defer blockScratchPool.Put(sc)
		for lo := blk.Lo; lo < blk.Hi; lo += kernel.BlockPairs {
			if err := fn(lo, e.universeChunk(lo, min(lo+kernel.BlockPairs, blk.Hi), sc.pairs[:])); err != nil {
				return err
			}
		}
		return nil
	})
}

// boundProvider is one source of bounds on a naive group's base values: the
// epoch's sketch-bound column of the base or its pair-moment column (exactly
// one is set).
type boundProvider struct {
	sketch  *boundColumn
	moments *kernel.PairMoments
}

// bounds fills lo/hi with an interval that contains the exact base value of
// every pair of chunk — universe positions [at, at+len(chunk)) — and NaN
// endpoints where the provider has none.  A sketch column is copied, because
// the callers lift lo/hi in place.
func (p boundProvider) bounds(base measure.Measure, mom *kernel.Moments, at int, chunk []timeseries.Pair, lo, hi []float64) {
	if p.sketch != nil {
		copy(lo, p.sketch.lo[at:at+len(chunk)])
		copy(hi, p.sketch.hi[at:at+len(chunk)])
		return
	}
	p.moments.Bounds(base == measure.Covariance, mom.Sum, at, chunk, lo, hi)
}

// boundProviders lists the providers of a naive group of boundable measures
// on base, in the order they are asked: the sketch first where the engine
// keeps one — its classification is what its counters and the planner's
// SketchAmbiguity describe — then the pair-moment column on what the sketch
// leaves.  It resolves both columns, so it runs before the group's fan-out.
func (e *engineState) boundProviders(base measure.Measure, mom *kernel.Moments) ([]boundProvider, error) {
	provs := make([]boundProvider, 0, 2)
	if e.sketch != nil {
		if col := e.sketchBounds(base, mom); col != nil {
			provs = append(provs, boundProvider{sketch: col})
		}
	}
	pm, err := e.pairMoments()
	if pm != nil {
		provs = append(provs, boundProvider{moments: pm})
	}
	return provs, err
}

// measureGroup is one measure's items within a base group.
type measureGroup struct {
	sp   *measure.Spec
	idxs []int
}

// baseGroup is one shared base computation of a sweep call.
type baseGroup struct {
	key      baseKey
	measures []measureGroup
	// bounded is set while every item of the group is a naive query of a
	// measure with a liftable bound (Spec.SketchBoundable); providers then
	// lists what bounds the group's base values, in the order it is asked.
	// Without providers every pair is evaluated.
	bounded   bool
	providers []boundProvider
	// column is the group's base values over the pair universe — an affine
	// group's base column, a naive covariance group's fit column — or nil
	// for a naive group that runs the kernels.
	column []float64
}

// itemState is what the shared pass keeps per item: its classification slot
// (−1 when its group evaluates every pair), the sketch provider's verdicts and
// the number of pairs it needed an exact value for.
type itemState struct {
	cls                int
	in, out, ambiguous int64
	refined            int64
}

// sweep answers the sweep-method items items[k], k ∈ idxs, of a cold batch
// into out[k] (and actuals[k], when wanted).  Items group by the spec's
// (base T-measure, method) — queries on cosine, Dice and Euclidean distance
// all ride one dot-product evaluation — and every group runs the stage at the
// head of this file in one shared pass over the pair universe (sweepPass).
// Only a naive top-k item of a boundable measure without a column runs on its
// own (boundTopK): it has to see every pair's bound before it knows which
// pairs to refine.
//
// On a cache-enabled engine an interval result also carries the value of
// every row it kept — the stage has them in hand and the cache stores them —
// which Run strips before returning: interval results keep nil Values by
// contract.
func (e *engineState) sweep(items []Item, idxs []int, out []QueryResult, actuals []Actual) error {
	_, mom, err := e.naive.Kernel()
	if err != nil {
		return err
	}
	states := make([]itemState, len(items))
	groups := make([]baseGroup, 0, len(idxs))
	// observed records what an item's bound providers did for it.
	observed := func(k int, provs []boundProvider, refined int64) {
		if provs[len(provs)-1].moments != nil {
			e.moments.counters.momentSweeps.Add(1)
			e.moments.counters.momentRefined.Add(refined)
		}
		if actuals != nil {
			actuals[k].Sketched = e.numUniversePairs()
			actuals[k].Refined = int(refined)
		}
	}
	for _, k := range idxs {
		p := items[k]
		states[k].cls = -1
		sp, err := pairwiseSpec(p.Spec.Measure)
		if err != nil {
			return err
		}
		if p.Method != MethodNaive && p.Method != MethodAffine {
			return fmt.Errorf("%w: %v for batched pair queries", ErrBadMethod, p.Method)
		}
		// A naive item the fit's covariance column answers rides its group
		// like an affine item: no bounds, no classification, no boundTopK.
		boundable := p.Method == MethodNaive && sp.SketchBoundable() && e.naiveColumn(sp.Base) == nil
		if boundable && p.Spec.Kind == plan.KindTopK {
			provs, err := e.boundProviders(sp.Base, mom)
			if err != nil {
				return err
			}
			if len(provs) > 0 {
				var refined int64
				if out[k], refined, err = e.boundTopK(p, sp, provs, mom); err != nil {
					return err
				}
				observed(k, provs, refined)
				continue
			}
		}
		key := baseKey{base: sp.Base, method: p.Method}
		gi := slices.IndexFunc(groups, func(g baseGroup) bool { return g.key == key })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, baseGroup{key: key, bounded: true})
		}
		g := &groups[gi]
		g.bounded = g.bounded && boundable
		mi := slices.IndexFunc(g.measures, func(mg measureGroup) bool { return mg.sp == sp })
		if mi < 0 {
			mi = len(g.measures)
			g.measures = append(g.measures, measureGroup{sp: sp})
		}
		g.measures[mi].idxs = append(g.measures[mi].idxs, k)
	}
	if len(groups) == 0 {
		return nil
	}

	numCls := 0
	for gi := range groups {
		g := &groups[gi]
		if g.bounded {
			if g.providers, err = e.boundProviders(g.key.base, mom); err != nil {
				return err
			}
		}
		var source string
		if g.key.method == MethodAffine {
			if g.column, source, err = e.baseColumn(g.key.base); err != nil {
				return err
			}
		} else if g.column = e.naiveColumn(g.key.base); g.column != nil {
			source = BaseFit
		}
		for _, mg := range g.measures {
			for _, k := range mg.idxs {
				if len(g.providers) > 0 {
					states[k].cls = numCls
					numCls++
				}
				if actuals != nil {
					actuals[k].BaseValues = source
				}
			}
		}
	}
	if err := e.sweepPass(items, groups, states, numCls, mom, out); err != nil {
		return err
	}
	for _, g := range groups {
		if len(g.providers) == 0 {
			continue
		}
		for _, mg := range g.measures {
			for _, k := range mg.idxs {
				st := &states[k]
				if g.providers[0].sketch != nil {
					e.sketch.Counters().CountSweep(st.in, st.out, st.ambiguous)
				}
				observed(k, g.providers, st.refined)
			}
		}
	}
	return nil
}

// chunkScratch is a row block's per-chunk working set, reused across the
// block's chunks: pairs holds the chunk (the universe is enumerated, not
// materialised), sub the pairs whose exact values are needed and subAt their
// positions in it, t and v base and derived values, lo and hi a provider's
// bounds.
type chunkScratch struct {
	pairs, sub   [kernel.BlockPairs]timeseries.Pair
	t, v, lo, hi [kernel.BlockPairs]float64
	subAt        [kernel.BlockPairs]int16
	need         [kernel.BlockPairs]bool
}

// blockScratch is the pooled working set of one row block of a pass over the
// pair universe — a sweep, a top-k's bounding phase, a column fill: the chunk
// scratch plus, for the shared sweep pass, the class buffer of its classified
// items and every item's partial result, whose pair and value buffers keep the
// capacity they grew to from call to call.
type blockScratch struct {
	chunkScratch
	classes  []sketch.Class
	partials []sweepPartial
}

var blockScratchPool par.Scratch[blockScratch]

// reset readies the scratch for a sweep of items items, numCls of them
// classified, and returns the items' empty partials.
func (sc *blockScratch) reset(items, numCls int) []sweepPartial {
	sc.classes = slices.Grow(sc.classes[:0], numCls*kernel.BlockPairs)[:numCls*kernel.BlockPairs]
	sc.partials = slices.Grow(sc.partials[:0], items)[:items]
	for k := range sc.partials {
		p := &sc.partials[k]
		*p = sweepPartial{pairs: p.pairs[:0], values: p.values[:0]}
	}
	return sc.partials
}

// sweepPartial is one item's share of one row block of the shared pass.
type sweepPartial struct {
	pairs  []timeseries.Pair
	values []float64 // on a cache-enabled engine
	heap   *scape.TopHeap
	itemState
}

// classes returns the item's classification of an n-pair chunk within the
// block's class buffer.
func (p *sweepPartial) classes(buf []sketch.Class, n int) []sketch.Class {
	return buf[p.cls*kernel.BlockPairs:][:n]
}

// sweepPass is the shared pass: one walk over the pair universe, sharded by
// row blocks, that answers every item of the given groups.  Per chunk and
// group the providers classify (classifyChunk), the exact evaluator fills the
// base value of every pair some item still needs — for an affine group the
// chunk's stretch of the epoch's base column — each measure sharing the base
// applies its own transform, and every item compacts
// its rows or offers its heap.  Per-block partial results merge in block order
// (intervals) or through the deterministic (value, pair) total order (top-k
// heaps), so out[k] equals the sequential single-query scan of items[k]
// exactly.  The partials live in pooled block scratch; the merge copies each
// interval result into its answer, allocated once at its final size.
func (e *engineState) sweepPass(items []Item, groups []baseGroup, states []itemState, numCls int, mom *kernel.Moments, out []QueryResult) error {
	keepValues := e.cache != nil
	blocks := par.Blocks(e.numUniversePairs(), e.par)
	// scratch[b].partials[k] is item k's share of block b.
	scratch := make([]*blockScratch, len(blocks))
	defer func() {
		for _, sc := range scratch {
			blockScratchPool.Put(sc)
		}
	}()
	err := par.Do(len(blocks), e.par, func(b int) error {
		w, _ := blockScratchPool.Get()
		scratch[b] = w
		local := w.reset(len(items), numCls)
		for gi := range groups {
			for _, mg := range groups[gi].measures {
				for _, k := range mg.idxs {
					local[k].cls = states[k].cls
					if spec := items[k].Spec; spec.Kind == plan.KindTopK {
						local[k].heap = scape.NewTopHeap(spec.K, spec.Largest)
					}
				}
			}
		}
		// O(blocks) scratch for the whole sweep, never O(pairs).  Undefined
		// derived values flow as NaN (EvalOrNaN): interval compaction never
		// matches NaN and the heaps never rank it, so degenerate pairs drop out
		// of every result without per-pair control flow.
		classes := w.classes
		for lo := blocks[b].Lo; lo < blocks[b].Hi; lo += kernel.BlockPairs {
			hi := min(lo+kernel.BlockPairs, blocks[b].Hi)
			chunk := e.universeChunk(lo, hi, w.pairs[:])
			for gi := range groups {
				g := &groups[gi]
				sub := chunk
				if len(g.providers) > 0 {
					sub = e.classifyChunk(g, items, lo, chunk, mom, &w.chunkScratch, classes, local)
				}
				t := w.t[:len(sub)]
				if g.column != nil {
					t = g.column[lo:hi]
				} else if err := e.fillBase(g.key.base, sub, t); err != nil {
					return err
				}
				for _, mg := range g.measures {
					vals, err := e.deriveValues(mg.sp, sub, t, w.v[:len(sub)])
					if err != nil {
						return err
					}
					for _, k := range mg.idxs {
						p := &local[k]
						switch iv := items[k].Spec.Interval; {
						case p.heap != nil:
							for i := range sub {
								p.heap.Offer(sub[i], vals[i])
							}
						case p.cls < 0:
							p.pairs = kernel.CompactPairs(p.pairs, sub, vals, iv)
							if keepValues {
								p.values = kernel.CompactValues(p.values, vals, iv)
							}
						default:
							// A definite-in row needs no value unless the cache
							// stores it; where one is in hand it decides, so a
							// kept row's membership is the exact value's.
							for i, c := range p.classes(classes, len(chunk)) {
								switch {
								case c == sketch.DefiniteOut:
								case c == sketch.DefiniteIn && !keepValues:
									p.pairs = append(p.pairs, chunk[i])
								case iv.Contains(vals[w.subAt[i]]):
									p.pairs = append(p.pairs, chunk[i])
									if keepValues {
										p.values = append(p.values, vals[w.subAt[i]])
									}
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for gi := range groups {
		for _, mg := range groups[gi].measures {
			for _, k := range mg.idxs {
				if spec := items[k].Spec; spec.Kind == plan.KindTopK {
					// Merge the per-block heaps: the retained set is a function
					// of the offered (value, pair) multiset under a total order,
					// so the merge is independent of the block partition.
					final := scape.NewTopHeap(spec.K, spec.Largest)
					for _, sc := range scratch {
						offerAll(final, sc.partials[k].heap)
					}
					topPairs, values := final.Sorted()
					out[k] = QueryResult{Pairs: topPairs, Values: values}
					continue
				}
				rows := 0
				for _, sc := range scratch {
					rows += len(sc.partials[k].pairs)
				}
				if rows > 0 {
					out[k].Pairs = make([]timeseries.Pair, 0, rows)
					if keepValues {
						out[k].Values = make([]float64, 0, rows)
					}
				}
				st := &states[k]
				for _, sc := range scratch {
					p := &sc.partials[k]
					out[k].Pairs = append(out[k].Pairs, p.pairs...)
					out[k].Values = append(out[k].Values, p.values...)
					st.in += p.in
					st.out += p.out
					st.ambiguous += p.ambiguous
					st.refined += p.refined
				}
			}
		}
	}
	return nil
}

// offerAll offers every entry src retains to dst.
func offerAll(dst, src *scape.TopHeap) {
	pairs, values := src.Sorted()
	for i := range pairs {
		dst.Offer(pairs[i], values[i])
	}
}

// classifyChunk classifies every pair of one chunk — universe positions
// [at, at+len(chunk)) — against every interval item of a bounded group and
// returns the pairs whose exact values are needed, with w.subAt[i] the
// position of chunk[i] among them.  Each provider bounds the base values once
// for the group; per item, Spec.BoundValue lifts the bound of every pair the
// item still finds ambiguous to its measure and sketch.Classify compares it
// with the predicate.  A pair no provider has a definite bound for stays
// ambiguous.  What is needed is the union over the items: the ambiguous pairs
// and, on a cache-enabled engine, the rows that are kept.
func (e *engineState) classifyChunk(g *baseGroup, items []Item, at int, chunk []timeseries.Pair, mom *kernel.Moments, w *chunkScratch, classes []sketch.Class, local []sweepPartial) []timeseries.Pair {
	numSamples := e.data.NumSamples()
	keepValues := e.cache != nil
	lo, hi := w.lo[:len(chunk)], w.hi[:len(chunk)]
	for pi, prov := range g.providers {
		prov.bounds(g.key.base, mom, at, chunk, lo, hi)
		pending := 0
		for _, mg := range g.measures {
			sp := mg.sp
			for _, k := range mg.idxs {
				st := &local[k]
				cls := st.classes(classes, len(chunk))
				if pi == 0 {
					clear(cls) // sketch.Ambiguous
				}
				iv := items[k].Spec.Interval
				for i, pair := range chunk {
					if cls[i] != sketch.Ambiguous {
						continue
					}
					var u float64
					if sp.Derived() {
						// Hoisted kernel moments; bit-identical to the exact
						// evaluation's parameter.
						u = sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
					}
					if vLo, vHi, ok := sp.BoundValue(lo[i], hi[i], u, numSamples); ok {
						cls[i] = sketch.Classify(iv, vLo, vHi)
					}
					if cls[i] == sketch.Ambiguous {
						pending++
					}
				}
				if prov.sketch != nil {
					for _, c := range cls {
						switch c {
						case sketch.DefiniteIn:
							st.in++
						case sketch.DefiniteOut:
							st.out++
						default:
							st.ambiguous++
						}
					}
				}
			}
		}
		if pending == 0 {
			break
		}
	}
	need := w.need[:len(chunk)]
	clear(need)
	for _, mg := range g.measures {
		for _, k := range mg.idxs {
			st := &local[k]
			for i, c := range st.classes(classes, len(chunk)) {
				if c == sketch.Ambiguous || (keepValues && c == sketch.DefiniteIn) {
					need[i] = true
					st.refined++
				}
			}
		}
	}
	sub := w.sub[:0]
	for i, pair := range chunk {
		if need[i] {
			w.subAt[i] = int16(len(sub))
			sub = append(sub, pair)
		}
	}
	return sub
}

// deriveValues turns base values t of pairs into the values of sp: t itself
// for a T-measure, the spec's transform over the pair's separable parameter —
// from the window's memoised moments, which naive and affine share
// (bit-identical to NaiveSeriesStat on the raw series) — into buf for a
// D-measure, NaN where the measure is undefined.
func (e *engineState) deriveValues(sp *measure.Spec, pairs []timeseries.Pair, t, buf []float64) ([]float64, error) {
	if !sp.Derived() {
		return t, nil
	}
	numSamples := e.data.NumSamples()
	for i, pair := range pairs {
		u := sp.Param(e.seriesMoments.Stat(pair.U), e.seriesMoments.Stat(pair.V))
		v, err := sp.EvalOrNaN(t[i], u, numSamples)
		if err != nil {
			return nil, err
		}
		buf[i] = v
	}
	return buf, nil
}

// boundTopK answers one naive top-k item of a boundable measure and reports
// how many pairs it sent to the kernels.  Phase 1 lifts every pair's bound to
// the measure: the k-th best pessimistic endpoint θ of the last (tightest)
// provider is a value at least k pairs are certain to reach, and the best
// optimistic endpoint of the first provider scores each chunk.
// Phase 2 visits the chunks best-first, refines — exact kernels, the item's
// transform — every pair whose optimistic endpoint reaches θ and offers it to
// the result heap, and stops at the first chunk whose score is strictly worse
// than the heap's threshold v_k: scores only descend from there and v_k only
// tightens.  Both comparisons keep the closed endpoint, because a value equal
// to v_k can still enter the heap on the pair-id tie-break.  Every pair of the
// exact sweep's result reaches θ and sits in a visited chunk, the heap's
// retained set is a function of the offered (value, pair) multiset under its
// total order, and a pair that is not offered could not have stayed in it, so
// the result — and the sequence of visited chunks, which the sketch tier's
// counters report — equals the unfiltered sweep's exactly.
func (e *engineState) boundTopK(it Item, sp *measure.Spec, provs []boundProvider, mom *kernel.Moments) (QueryResult, int64, error) {
	numPairs := e.numUniversePairs()
	largest := it.Spec.Largest
	first, last := provs[0], provs[len(provs)-1]
	var refined int64
	numChunks := (numPairs + kernel.BlockPairs - 1) / kernel.BlockPairs
	chunkOf := func(c int, w *chunkScratch) (int, []timeseries.Pair) {
		lo := c * kernel.BlockPairs
		return lo, e.universeChunk(lo, min(lo+kernel.BlockPairs, numPairs), w.pairs[:])
	}
	// optimistic and pessimistic pick a lifted bound's endpoints by direction;
	// a pair without a definite bound has neither (NaN).
	optimistic := func(w *chunkScratch, i int) float64 {
		if largest {
			return w.hi[i]
		}
		return w.lo[i]
	}
	pessimistic := func(w *chunkScratch, i int) float64 {
		if largest {
			return w.lo[i]
		}
		return w.hi[i]
	}

	// Phase 1, sharded over chunks with O(blocks) scratch.  A chunk's score is
	// oriented so that higher is more promising; a pair without a bound makes
	// its chunk unprunable (+Inf).
	scores := make([]float64, numChunks)
	cblocks := par.Blocks(numChunks, e.par)
	floors := make([]*scape.TopHeap, len(cblocks))
	_ = par.Do(len(cblocks), e.par, func(cb int) error {
		sc, _ := blockScratchPool.Get()
		defer blockScratchPool.Put(sc)
		w := &sc.chunkScratch
		floor := scape.NewTopHeap(it.Spec.K, largest)
		for c := cblocks[cb].Lo; c < cblocks[cb].Hi; c++ {
			at, chunk := chunkOf(c, w)
			e.liftBounds(first, sp, at, chunk, mom, w)
			score := math.Inf(-1)
			for i := range chunk {
				opt := optimistic(w, i)
				if !largest {
					opt = -opt
				}
				if math.IsNaN(opt) {
					opt = math.Inf(1)
				}
				score = max(score, opt)
			}
			scores[c] = score
			if len(provs) > 1 {
				e.liftBounds(last, sp, at, chunk, mom, w)
			}
			for i, pair := range chunk {
				floor.Offer(pair, pessimistic(w, i))
			}
		}
		floors[cb] = floor
		return nil
	})
	floor := scape.NewTopHeap(it.Spec.K, largest)
	for _, f := range floors {
		offerAll(floor, f)
	}
	theta, certain := floor.Threshold()

	// Phase 2.
	heap := scape.NewTopHeap(it.Spec.K, largest)
	sc, _ := blockScratchPool.Get()
	defer blockScratchPool.Put(sc)
	w := &sc.chunkScratch
	visited := 0
	for _, c := range chunkVisitOrder(scores) {
		if vk, full := heap.Threshold(); full {
			if !largest {
				vk = -vk
			}
			if scores[c] < vk {
				break
			}
		}
		at, chunk := chunkOf(c, w)
		visited += len(chunk)
		e.liftBounds(last, sp, at, chunk, mom, w)
		sub := w.sub[:0]
		for i, pair := range chunk {
			// The negated comparisons keep a pair without a bound (NaN).
			if opt := optimistic(w, i); certain && ((largest && opt < theta) || (!largest && opt > theta)) {
				continue
			}
			sub = append(sub, pair)
		}
		t := w.t[:len(sub)]
		if err := e.fillBase(sp.Base, sub, t); err != nil {
			return QueryResult{}, 0, err
		}
		vals, err := e.deriveValues(sp, sub, t, w.v[:len(sub)])
		if err != nil {
			return QueryResult{}, 0, err
		}
		for i, pair := range sub {
			heap.Offer(pair, vals[i])
		}
		refined += int64(len(sub))
	}
	if first.sketch != nil {
		// Every chunk is either visited whole or skipped whole.
		e.sketch.Counters().CountTopK(int64(visited), int64(numPairs-visited))
	}
	topPairs, values := heap.Sorted()
	return QueryResult{Pairs: topPairs, Values: values}, refined, nil
}

// chunkVisitOrder returns the chunk indices by descending score, ties by
// ascending index — a strict total order (no score is NaN), so the visit order
// is deterministic.
func chunkVisitOrder(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(scores[b], scores[a]), cmp.Compare(a, b))
	})
	return order
}

// liftBounds fills w.lo/w.hi with the provider's bounds on the value of sp for
// every pair of chunk: the base bound lifted through Spec.BoundValue, NaN
// endpoints where either step has no definite answer.
func (e *engineState) liftBounds(prov boundProvider, sp *measure.Spec, at int, chunk []timeseries.Pair, mom *kernel.Moments, w *chunkScratch) {
	numSamples := e.data.NumSamples()
	lo, hi := w.lo[:len(chunk)], w.hi[:len(chunk)]
	prov.bounds(sp.Base, mom, at, chunk, lo, hi)
	for i, pair := range chunk {
		var u float64
		if sp.Derived() {
			u = sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
		}
		vLo, vHi, ok := sp.BoundValue(lo[i], hi[i], u, numSamples)
		if !ok {
			vLo, vHi = math.NaN(), math.NaN()
		}
		lo[i], hi[i] = vLo, vHi
	}
}
