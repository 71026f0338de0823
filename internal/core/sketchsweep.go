package core

import (
	"math"
	"sort"
	"sync/atomic"

	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// This file is the refine half of the coefficient-sketch filter-and-refine
// sweep tier (internal/sketch is the filter half).  A naive-method pairwise
// sweep over a sketch-enabled epoch first classifies every pair against the
// query from its sketched measure bounds — definite-in pairs are emitted
// without touching a raw sample, definite-out pairs are dropped, and only the
// ambiguous remainder reaches the exact blocked kernels.  Because the bounds
// are definite (epsilon-padded past every floating-point error source) and
// the ambiguous pairs are evaluated by the very same kernel code in the very
// same order, the result is byte-identical to the unpruned sweep — the
// property TestSketchSweepParity pins with Float64bits comparisons.

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

// sketchUsable reports whether the prescreen applies to one executor item: a
// sketch-enabled epoch, a resolved naive-method pairwise sweep, and a measure
// whose value bounds the sketch can derive.  Everything else takes the plain
// shared-scan path unchanged.
func (e *engineState) sketchUsable(it Item) bool {
	if e.sketch == nil || it.Location || it.Method != MethodNaive {
		return false
	}
	sp, ok := measure.Find(it.Spec.Measure)
	return ok && sp.SketchBoundable()
}

// sketchSweep answers one prescreen-eligible sweep item, reporting how many
// pairs the prescreen classified and how many reached the exact kernels.
func (e *engineState) sketchSweep(it Item) (QueryResult, Actual, error) {
	sp, _ := measure.Find(it.Spec.Measure)
	if it.Spec.Kind == plan.KindTopK {
		return e.sketchTopK(it, sp)
	}
	return e.sketchInterval(it, sp)
}

// sketchInterval runs the filter-and-refine interval sweep.  Per 256-pair
// chunk: the blocked sketch kernel bounds the base T-measure, BoundValue
// lifts the bounds to the measure's value domain, and each pair is classified
// against the query interval.  Ambiguous pairs are re-evaluated by the exact
// blocked kernel (same code, same order as the plain sweep); the chunk is
// then compacted branch-free by kernel.CompactPairs over per-pair decision
// values — a contained bound endpoint for definite-in pairs (Classify proved
// containment), NaN for definite-out pairs (never matches), and the exact
// value for ambiguous ones — so the emitted set and order equal the unpruned
// sweep's exactly.
func (e *engineState) sketchInterval(it Item, sp *measure.Spec) (QueryResult, Actual, error) {
	numPairs := e.numUniversePairs()
	numSamples := e.data.NumSamples()
	kern, mom, err := e.naive.Kernel()
	if err != nil {
		return QueryResult{}, Actual{}, err
	}
	sk := e.sketch
	iv := it.Spec.Interval
	baseBlock := kern.BaseBlock(sp.Base)
	blocks := par.Blocks(numPairs, e.par)
	perBlock := make([][]timeseries.Pair, len(blocks))
	var cIn, cOut, cAmb atomic.Int64
	err = par.Do(len(blocks), e.par, func(b int) error {
		// O(blocks) scratch, like the exact sweep: per-chunk pair, bound, class
		// and kernel buffers reused across the block's chunks.
		scratch := make([]timeseries.Pair, kernel.BlockPairs)
		tLo := make([]float64, kernel.BlockPairs)
		tHi := make([]float64, kernel.BlockPairs)
		cls := make([]sketch.Class, kernel.BlockPairs)
		amb := make([]timeseries.Pair, 0, kernel.BlockPairs)
		tbuf := make([]float64, kernel.BlockPairs)
		vbuf := make([]float64, kernel.BlockPairs)
		var res []timeseries.Pair
		var in, out, ambN int64
		for lo := blocks[b].Lo; lo < blocks[b].Hi; lo += kernel.BlockPairs {
			chunk := e.universeChunk(lo, min(lo+kernel.BlockPairs, blocks[b].Hi), scratch)
			bLo, bHi := tLo[:len(chunk)], tHi[:len(chunk)]
			bounded := sk.BoundBlock(sp.Base, mom, chunk, bLo, bHi)
			amb = amb[:0]
			for i, pair := range chunk {
				cls[i] = sketch.Ambiguous
				if bounded {
					var u float64
					if sp.Derived() {
						// Hoisted kernel moments; bit-identical to the exact
						// sweep's parameter.
						u = sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
					}
					if vLo, vHi, ok := sp.BoundValue(bLo[i], bHi[i], u, numSamples); ok {
						cls[i] = sketch.Classify(iv, vLo, vHi)
						bLo[i] = vLo
					}
				}
				switch cls[i] {
				case sketch.DefiniteIn:
					in++
				case sketch.DefiniteOut:
					out++
					bLo[i] = math.NaN()
				default:
					ambN++
					amb = append(amb, pair)
				}
			}
			// Exact refine of the ambiguous subset: the same blocked kernel
			// and derived transform as pairMultiSweep, per pair independent,
			// so each value is bit-identical to the full chunk's evaluation.
			if len(amb) > 0 {
				t := tbuf[:len(amb)]
				baseBlock(mom, amb, t)
				vals := t
				if sp.Derived() {
					vals = vbuf[:len(amb)]
					for i, pair := range amb {
						u := sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
						v, verr := sp.EvalOrNaN(t[i], u, numSamples)
						if verr != nil {
							return verr
						}
						vals[i] = v
					}
				}
				ai := 0
				for i := range chunk {
					if cls[i] == sketch.Ambiguous {
						bLo[i] = vals[ai]
						ai++
					}
				}
			}
			res = kernel.CompactPairs(res, chunk, bLo, iv)
		}
		perBlock[b] = res
		cIn.Add(in)
		cOut.Add(out)
		cAmb.Add(ambN)
		return nil
	})
	if err != nil {
		return QueryResult{}, Actual{}, err
	}
	sk.Counters().CountSweep(cIn.Load(), cOut.Load(), cAmb.Load())
	// Interval results carry nil Values by contract, matching every other
	// interval execution path.
	return QueryResult{Pairs: par.FlattenBlocks(perBlock)},
		Actual{Sketched: numPairs, Refined: int(cAmb.Load())}, nil
}

// sketchTopK runs the best-first top-k sweep: every 256-pair chunk gets an
// optimistic score from its sketched upper bounds (for largest; lower bounds
// negated for smallest, so higher is always more promising), chunks are
// visited best-first, each visited chunk is evaluated whole by the exact
// kernels and offered to the running heap, and the scan stops at the first
// chunk whose optimistic score is strictly worse than the heap's threshold
// v_k — scores only descend from there and v_k only tightens.  The strict
// comparison keeps the closed endpoint: a value exactly equal to v_k can
// still enter the heap on the pair-id tie-break, so such chunks are examined.
// Every pair that could appear in the exact sweep's heap is offered, and the
// heap's retained set is a function of the offered (value, pair) multiset
// under its total order, so the result equals the unpruned sweep's exactly.
func (e *engineState) sketchTopK(it Item, sp *measure.Spec) (QueryResult, Actual, error) {
	numPairs := e.numUniversePairs()
	numSamples := e.data.NumSamples()
	kern, mom, err := e.naive.Kernel()
	if err != nil {
		return QueryResult{}, Actual{}, err
	}
	sk := e.sketch
	largest := it.Spec.Largest
	numChunks := (numPairs + kernel.BlockPairs - 1) / kernel.BlockPairs
	chunkOf := func(c int, scratch []timeseries.Pair) []timeseries.Pair {
		lo := c * kernel.BlockPairs
		return e.universeChunk(lo, min(lo+kernel.BlockPairs, numPairs), scratch)
	}

	// Phase 1: optimistic chunk scores from the sketched bounds, sharded with
	// O(blocks) scratch.  A pair without a definite bound scores +Inf — its
	// chunk is unprunable and sorts first.
	scores := make([]float64, numChunks)
	cblocks := par.Blocks(numChunks, e.par)
	err = par.Do(len(cblocks), e.par, func(cb int) error {
		scratch := make([]timeseries.Pair, kernel.BlockPairs)
		tLo := make([]float64, kernel.BlockPairs)
		tHi := make([]float64, kernel.BlockPairs)
		for c := cblocks[cb].Lo; c < cblocks[cb].Hi; c++ {
			chunk := chunkOf(c, scratch)
			bLo, bHi := tLo[:len(chunk)], tHi[:len(chunk)]
			bounded := sk.BoundBlock(sp.Base, mom, chunk, bLo, bHi)
			score := math.Inf(-1)
			for i, pair := range chunk {
				opt := math.Inf(1)
				if bounded {
					var u float64
					if sp.Derived() {
						u = sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
					}
					if vLo, vHi, ok := sp.BoundValue(bLo[i], bHi[i], u, numSamples); ok {
						if largest {
							opt = vHi
						} else {
							opt = -vLo
						}
					}
				}
				if math.IsNaN(opt) {
					opt = math.Inf(1)
				}
				if opt > score {
					score = opt
				}
			}
			scores[c] = score
		}
		return nil
	})
	if err != nil {
		return QueryResult{}, Actual{}, err
	}

	// Phase 2: best-first exact refinement.  Ties in score break by chunk
	// index, so the visit order is deterministic.
	order := make([]int, numChunks)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	heap := scape.NewTopHeap(it.Spec.K, largest)
	baseBlock := kern.BaseBlock(sp.Base)
	scratch := make([]timeseries.Pair, kernel.BlockPairs)
	tbuf := make([]float64, kernel.BlockPairs)
	vbuf := make([]float64, kernel.BlockPairs)
	refined := 0
	for _, c := range order {
		if t, full := heap.Threshold(); full {
			tEff := t
			if !largest {
				tEff = -t
			}
			if scores[c] < tEff {
				break
			}
		}
		chunk := chunkOf(c, scratch)
		t := tbuf[:len(chunk)]
		baseBlock(mom, chunk, t)
		vals := t
		if sp.Derived() {
			vals = vbuf[:len(chunk)]
			for i, pair := range chunk {
				u := sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
				v, verr := sp.EvalOrNaN(t[i], u, numSamples)
				if verr != nil {
					return QueryResult{}, Actual{}, verr
				}
				vals[i] = v
			}
		}
		for i := range chunk {
			heap.Offer(chunk[i], vals[i])
		}
		refined += len(chunk)
	}
	// Every chunk is either refined whole or skipped whole.
	sk.Counters().CountTopK(int64(refined), int64(numPairs-refined))
	topPairs, values := heap.Sorted()
	return QueryResult{Pairs: topPairs, Values: values},
		Actual{Sketched: numPairs, Refined: refined}, nil
}
