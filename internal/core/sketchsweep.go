package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"affinity/internal/interval"
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
// the base value of every pair without touching a raw sample, Spec.Classify
// lifts it to each item's measure and classifies the pair against the
// item's predicate — an interval item's interval, a top-k item's heap's
// running interval — as definitely in, definitely out, or ambiguous.  Only what
// is left — the ambiguous sliver, every pair a top-k did not rule out, and on
// a cache-enabled engine the rows that are kept, whose values the cache
// stores — reaches the exact evaluator, once per group for the union of what
// its items need.  The providers of a naive group,
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
	kern, mom, err := st.naiveKernel()
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
		kern, mom, err := e.naiveKernel()
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
		provs = append(provs, boundProvider{sketch: e.sketchBounds(base, mom)})
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
// A top-k item classifies against its block heap's running interval, so it
// rides the same pass as the intervals.
//
// On a cache-enabled engine an interval result also carries the value of
// every row it kept — the stage has them in hand and the cache stores them —
// which Run strips before returning: interval results keep nil Values by
// contract.
func (e *engineState) sweep(items []Item, idxs []int, out []QueryResult, actuals []Actual) error {
	_, mom, err := e.naiveKernel()
	if err != nil {
		return err
	}
	states := make([]itemState, len(items))
	groups := make([]baseGroup, 0, len(idxs))
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
		// like an affine item: no bounds, no classification.
		boundable := p.Method == MethodNaive && sp.SketchBoundable() && e.naiveColumn(sp.Base) == nil
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
					if items[k].Spec.Kind == plan.KindTopK {
						e.sketch.Counters().CountTopK(st.in+st.ambiguous, st.out)
					} else {
						e.sketch.Counters().CountSweep(st.in, st.out, st.ambiguous)
					}
				}
				if g.providers[len(g.providers)-1].moments != nil {
					e.moments.counters.momentSweeps.Add(1)
					e.moments.counters.momentRefined.Add(st.refined)
				}
				if actuals != nil {
					actuals[k].Sketched = e.numUniversePairs()
					actuals[k].Refined = int(st.refined)
				}
			}
		}
	}
	return nil
}

// blockScratch is the pooled working set of one row block of a pass over the
// pair universe — a sweep, a column fill — reused across the block's chunks:
// pairs holds the chunk (the universe is enumerated, not materialised), sub
// the pairs whose exact values are needed and subAt their positions in it, t
// and v base and derived values, lo and hi a provider's bounds and vlo and
// vhi their lift to an item's measure, derive the pairs' series statistics
// and separable parameters.  For the shared sweep pass it also keeps the
// class buffer of the classified items and every item's partial result,
// whose pair and value buffers keep the capacity they grew to from call to
// call.
type blockScratch struct {
	pairs, sub             [kernel.BlockPairs]timeseries.Pair
	t, v, lo, hi, vlo, vhi [kernel.BlockPairs]float64
	derive                 timeseries.DeriveScratch
	subAt                  [kernel.BlockPairs]int16
	need                   [kernel.BlockPairs]bool
	classes                []interval.Class
	partials               []sweepPartial
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
func (p *sweepPartial) classes(buf []interval.Class, n int) []interval.Class {
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
		// derived values flow as NaN (Spec.ValueBlock): interval compaction never
		// matches NaN and the heaps never rank it, so degenerate pairs drop out
		// of every result without per-pair control flow.
		for lo := blocks[b].Lo; lo < blocks[b].Hi; lo += kernel.BlockPairs {
			hi := min(lo+kernel.BlockPairs, blocks[b].Hi)
			chunk := e.universeChunk(lo, hi, w.pairs[:])
			for gi := range groups {
				g := &groups[gi]
				sub := chunk
				if len(g.providers) > 0 {
					sub = e.classifyChunk(g, items, lo, chunk, mom, w)
				}
				t := w.t[:len(sub)]
				if g.column != nil {
					t = g.column[lo:hi]
				} else if err := e.fillBase(g.key.base, sub, t); err != nil {
					return err
				}
				for _, mg := range g.measures {
					vals, err := e.deriveValues(mg.sp, sub, t, w.v[:len(sub)], w)
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
							for i, c := range p.classes(w.classes, len(chunk)) {
								switch {
								case c == interval.DefiniteOut:
								case c == interval.DefiniteIn && !keepValues:
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
				st := &states[k]
				for _, sc := range scratch {
					p := &sc.partials[k]
					st.in += p.in
					st.out += p.out
					st.ambiguous += p.ambiguous
					st.refined += p.refined
				}
				if spec := items[k].Spec; spec.Kind == plan.KindTopK {
					// Merge the per-block heaps: the retained set is a function
					// of the offered (value, pair) multiset under a total order,
					// so the merge is independent of the block partition.
					final := scape.NewTopHeap(spec.K, spec.Largest)
					for _, sc := range scratch {
						pairs, values := sc.partials[k].heap.Sorted()
						for i := range pairs {
							final.Offer(pairs[i], values[i])
						}
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
				for _, sc := range scratch {
					out[k].Pairs = append(out[k].Pairs, sc.partials[k].pairs...)
					out[k].Values = append(out[k].Values, sc.partials[k].values...)
				}
			}
		}
	}
	return nil
}

// classifyChunk classifies every pair of one chunk — universe positions
// [at, at+len(chunk)) — against every item of a bounded group and returns the
// pairs whose exact values are needed, with w.subAt[i] the position of
// chunk[i] among them.  An interval item's predicate is its interval; a top-k
// item's is its block heap's running interval, which only narrows as the
// block's later chunks are offered, so a pair it rules out could never have
// entered the heap.  Each provider bounds the base values once for the group;
// per item, Spec.Classify lifts the bounds of every pair the item still finds
// ambiguous to its measure — for a half-bounded predicate the value end that
// can rule the pair out first — and compares the range with the predicate.
// A pair no provider has a definite bound for stays ambiguous.  What is needed
// is the union over the items: every pair a top-k item did not rule out, an
// interval item's ambiguous pairs and, on a cache-enabled engine, the rows it
// keeps.
func (e *engineState) classifyChunk(g *baseGroup, items []Item, at int, chunk []timeseries.Pair, mom *kernel.Moments, w *blockScratch) []timeseries.Pair {
	numSamples := e.data.NumSamples()
	keepValues := e.cache != nil
	lo, hi := w.lo[:len(chunk)], w.hi[:len(chunk)]
	vLo, vHi := w.vlo[:len(chunk)], w.vhi[:len(chunk)]
	for pi, prov := range g.providers {
		prov.bounds(g.key.base, mom, at, chunk, lo, hi)
		pending := 0
		for _, mg := range g.measures {
			sp := mg.sp
			var u []float64
			if sp.Derived() {
				// Hoisted kernel moments; bit-identical to the exact
				// evaluation's parameters.
				u = mom.Params(sp, chunk, &w.derive)
			}
			for _, k := range mg.idxs {
				st := &w.partials[k]
				cls := st.classes(w.classes, len(chunk))
				if pi == 0 {
					clear(cls) // interval.Ambiguous
				}
				iv := items[k].Spec.Interval
				if st.heap != nil {
					iv = st.heap.RunningInterval()
				}
				pending += sp.Classify(iv, lo, hi, u, numSamples, vLo, vHi, cls)
				if prov.sketch != nil {
					for _, c := range cls {
						switch c {
						case interval.DefiniteIn:
							st.in++
						case interval.DefiniteOut:
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
			st := &w.partials[k]
			keep := keepValues || st.heap != nil
			for i, c := range st.classes(w.classes, len(chunk)) {
				if c == interval.Ambiguous || (keep && c == interval.DefiniteIn) {
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
// for a T-measure; for a D-measure the spec's transform over the pairs'
// separable parameters — from the window's memoised moments, which naive and
// affine share (bit-identical to NaiveSeriesStat on the raw series) — into
// out, which may alias t, NaN where the measure is undefined.
func (e *engineState) deriveValues(sp *measure.Spec, pairs []timeseries.Pair, t, out []float64, w *blockScratch) ([]float64, error) {
	if !sp.Derived() {
		return t, nil
	}
	out = out[:len(pairs)]
	return out, e.seriesMoments.Derive(sp, pairs, t, e.data.NumSamples(), out, &w.derive)
}
