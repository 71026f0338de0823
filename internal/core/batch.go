package core

import (
	"fmt"

	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// This file is the single engine's cold execution (Backend.Execute): a batch
// of resolved items answered against one epoch with as much shared work as
// the methods allow:
//
//   - shared scans: sweep-method (naive/affine) pairwise queries on the same
//     (measure, method) share one pass over the sequence pairs — each pair's
//     value and derived-measure normalizer is computed once and tested
//     against every interval predicate and offered to every top-k heap;
//     index-method interval queries share the pivot-node traversal
//     (scape.PairBatch visits every pivot node once), while index top-k
//     queries each run their own best-first traversal;
//   - parallelism: the shared sweeps shard across the engine's worker pool.
//
// Results are guaranteed — and pinned by TestBatchMatchesSingleQueries — to
// equal the corresponding sequence of single-query calls, element for
// element, in the same order.

// IntervalQuery describes one interval (MET/MER) query of a batch: entries
// whose measure value lies in Interval.
type IntervalQuery struct {
	Measure  stats.Measure
	Interval interval.Interval
}

// ComputeQuery describes one MEC query of a batch: an L-measure over IDs
// (answered in Location) or a pairwise measure over IDs (answered in
// Pairwise).
type ComputeQuery struct {
	Measure stats.Measure
	IDs     []timeseries.SeriesID
}

// ComputeResult is the answer to one ComputeQuery.
type ComputeResult struct {
	Location []float64
	Pairwise [][]float64
}

// IntervalBatch answers a batch of interval queries with the selected method.
// out[i] corresponds to qs[i] and is identical to Interval(qs[i]...).
func (e *Engine) IntervalBatch(qs []IntervalQuery, method Method) ([]QueryResult, error) {
	specs := make([]plan.QuerySpec, len(qs))
	for i, q := range qs {
		specs[i] = plan.Interval(q.Measure, q.Interval)
	}
	out, _, err := Run(e.state(), specs, method, false)
	return out, err
}

// ComputeBatch answers a batch of MEC queries with the selected method.
// out[i] corresponds to qs[i] and is identical to the matching
// ComputeLocation/ComputePairwise call.
func (e *Engine) ComputeBatch(qs []ComputeQuery, method Method) ([]ComputeResult, error) {
	return Compute(e.state(), qs, method)
}

// Execute answers resolved items cold: location queries run directly from the
// cached per-series vectors or the location columns, index-method interval
// queries share one pivot-node traversal, index top-k queries run their
// best-first traversals, prescreen-eligible naive sweeps take the sketch
// filter-and-refine path, and the remaining sweep-method pairwise queries —
// interval and top-k alike — share one multi-predicate pass, with results
// scattered back into request order.
func (e *engineState) Execute(items []Item, actuals []Actual) ([]QueryResult, error) {
	out := make([]QueryResult, len(items))
	var indexQueries []scape.PairQuery
	var indexIdx []int
	var sweeps []Item
	var sweepIdx []int
	for i, it := range items {
		switch {
		case it.Location:
			res, err := e.locationQuery(it)
			if err != nil {
				return nil, err
			}
			out[i] = res
		case it.Method == MethodIndex:
			if e.index == nil {
				return nil, ErrNoIndex
			}
			if it.Spec.Kind == plan.KindTopK {
				pairs, values, _, err := e.index.PairTopK(it.Spec.Measure, it.Spec.K, it.Spec.Largest)
				if err != nil {
					return nil, err
				}
				out[i] = QueryResult{Pairs: pairs, Values: values}
				continue
			}
			indexQueries = append(indexQueries, it.Spec.PairQuery())
			indexIdx = append(indexIdx, i)
		case e.sketchUsable(it):
			// Filter-and-refine sweep: prescreen against the epoch's
			// coefficient sketches, exact kernels only for ambiguous pairs.
			// Byte-identical to the shared scan below by construction, so
			// which path an item takes never shows in results — only in
			// latency and counters.
			res, act, err := e.sketchSweep(it)
			if err != nil {
				return nil, err
			}
			out[i] = res
			if actuals != nil {
				actuals[i] = act
			}
		default:
			sweeps = append(sweeps, it)
			sweepIdx = append(sweepIdx, i)
		}
	}
	if len(indexIdx) > 0 {
		results, err := e.index.PairBatch(indexQueries)
		if err != nil {
			return nil, err
		}
		for k, i := range indexIdx {
			out[i] = QueryResult{Pairs: results[k]}
		}
	}
	if len(sweepIdx) > 0 {
		results, sources, err := e.pairMultiSweep(sweeps)
		if err != nil {
			return nil, err
		}
		for k, i := range sweepIdx {
			out[i] = results[k]
			if actuals != nil {
				actuals[i].BaseValues = sources[k]
			}
		}
	}
	return out, nil
}

// locationQuery answers one L-measure interval or top-k query with its
// resolved method: from the index's location columns, or by filtering / ranking
// the per-series values of the sweep methods.
func (e *engineState) locationQuery(it Item) (QueryResult, error) {
	spec := it.Spec
	if it.Method == MethodIndex {
		if e.index == nil {
			return QueryResult{}, ErrNoIndex
		}
		if spec.Kind == plan.KindTopK {
			ids, values, err := e.index.SeriesTopK(spec.Measure, spec.K, spec.Largest)
			return QueryResult{Series: ids, Values: values}, err
		}
		ids, err := e.index.SeriesInterval(spec.Measure, spec.Interval)
		return QueryResult{Series: ids}, err
	}
	ids := e.data.IDs()
	values, err := e.locationValues(spec.Measure, ids, it.Method)
	if err != nil {
		return QueryResult{}, err
	}
	if spec.Kind == plan.KindTopK {
		return topSeries(ids, values, spec.K, spec.Largest), nil
	}
	var out []timeseries.SeriesID
	for i, v := range values {
		if spec.Interval.Contains(v) {
			out = append(out, ids[i])
		}
	}
	return QueryResult{Series: out}, nil
}

// locationValues returns an L-measure's value for each requested series:
// from the raw window (naive) or from the affine per-series estimates.
func (e *engineState) locationValues(m stats.Measure, ids []timeseries.SeriesID, method Method) ([]float64, error) {
	switch method {
	case MethodNaive:
		return e.naive.Location(m, ids)
	case MethodAffine:
		estimates, ok := e.seriesLocation[m]
		if !ok {
			return nil, fmt.Errorf("core: no location estimates for %v", m)
		}
		out := make([]float64, len(ids))
		for i, id := range ids {
			if int(id) < 0 || int(id) >= len(estimates) {
				return nil, fmt.Errorf("%w: %d", timeseries.ErrInvalidSeries, id)
			}
			out[i] = estimates[id]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %v for an L-measure", ErrBadMethod, method)
	}
}

// pairMultiSweep answers every sweep item in one pass over the sequence
// pairs, sharded by row blocks.  Items group by the spec's
// (base T-measure, method): per block and pair, each distinct base value is
// computed once and every measure sharing it applies only its own transform
// before testing its interval predicates and offering its top-k heaps —
// queries on cosine, Dice and Euclidean distance all ride one dot-product
// evaluation.  On a cache-enabled engine the sharing extends across calls: a
// group's base values come from the epoch's base column (basecolumns.go),
// evaluated by the first sweep that needs them.  Per-block partial results are
// merged in block order (interval results) or through the deterministic
// (value, pair) total order (top-k heaps), so out[k] equals the sequential
// single-query scan for items[k] exactly.  sources[k] says whether items[k]'s
// base values were a column this call filled or reused ("" when streamed).
//
// On a cache-enabled engine an interval result also carries the value of
// every row it kept — the sweep has them in hand and the cache stores them —
// which Run strips before returning: interval results keep nil Values by
// contract.
func (e *engineState) pairMultiSweep(items []Item) ([]QueryResult, []string, error) {
	// measureGroup is one measure's items within a base group.
	type measureGroup struct {
		sp   *measure.Spec
		idxs []int
	}
	// baseGroup is one shared base computation: its column when the epoch
	// memoises it, nil when the block loop streams it chunk by chunk.
	type baseGroup struct {
		key      baseKey
		column   []float64
		measures []*measureGroup
	}
	var groups []*baseGroup
	groupOf := make(map[baseKey]*baseGroup)
	for k, p := range items {
		sp, err := pairwiseSpec(p.Spec.Measure)
		if err != nil {
			return nil, nil, err
		}
		if p.Method != MethodNaive && p.Method != MethodAffine {
			return nil, nil, fmt.Errorf("%w: %v for batched pair queries", ErrBadMethod, p.Method)
		}
		key := baseKey{base: sp.Base, method: p.Method, solo: -1}
		if !sp.BatchGroupable {
			key.solo = sp.ID
		}
		g := groupOf[key]
		if g == nil {
			g = &baseGroup{key: key}
			groupOf[key] = g
			groups = append(groups, g)
		}
		var mg *measureGroup
		for _, have := range g.measures {
			if have.sp.ID == sp.ID {
				mg = have
				break
			}
		}
		if mg == nil {
			mg = &measureGroup{sp: sp}
			g.measures = append(g.measures, mg)
		}
		mg.idxs = append(mg.idxs, k)
	}

	sources := make([]string, len(items))
	for _, g := range groups {
		column, source, err := e.baseColumn(g.key)
		if err != nil {
			return nil, nil, err
		}
		g.column = column
		for _, mg := range g.measures {
			for _, k := range mg.idxs {
				sources[k] = source
			}
		}
	}

	numPairs := e.numUniversePairs()
	numSamples := e.data.NumSamples()
	_, mom, err := e.naive.Kernel()
	if err != nil {
		return nil, nil, err
	}
	keepValues := e.cache != nil
	blocks := par.Blocks(numPairs, e.par)
	type blockPart struct {
		pairs  [][]timeseries.Pair // per interval item
		values [][]float64         // per interval item, with keepValues
		heaps  []*scape.TopHeap    // per top-k item
	}
	parts := make([]blockPart, len(blocks))
	err = par.Do(len(blocks), e.par, func(b int) error {
		local := blockPart{
			pairs: make([][]timeseries.Pair, len(items)),
			heaps: make([]*scape.TopHeap, len(items)),
		}
		if keepValues {
			local.values = make([][]float64, len(items))
		}
		for k, p := range items {
			if p.Spec.Kind == plan.KindTopK {
				local.heaps[k] = scape.NewTopHeap(p.Spec.K, p.Spec.Largest)
			}
		}
		// Kernel-block buffers per row block — O(blocks) allocations for the
		// whole sweep, never O(pairs): scratch holds the chunk's pairs (the
		// universe is enumerated, not materialized), tbuf a streamed group's
		// base values, vbuf each derived measure's transformed values.
		// Undefined derived values flow as NaN (EvalOrNaN): interval compaction
		// never matches NaN and the heaps never rank it, so degenerate pairs
		// drop out of every result without per-pair control flow.
		scratch := make([]timeseries.Pair, kernel.BlockPairs)
		tbuf := make([]float64, kernel.BlockPairs)
		vbuf := make([]float64, kernel.BlockPairs)
		for lo := blocks[b].Lo; lo < blocks[b].Hi; lo += kernel.BlockPairs {
			hi := min(lo+kernel.BlockPairs, blocks[b].Hi)
			chunk := e.universeChunk(lo, hi, scratch)
			for _, g := range groups {
				t := tbuf[:len(chunk)]
				if g.column != nil {
					t = g.column[lo:hi]
				} else if err := e.fillBase(g.key, chunk, t); err != nil {
					return err
				}
				for _, mg := range g.measures {
					vals := t
					if mg.sp.Derived() {
						vals = vbuf[:len(chunk)]
						for i, pair := range chunk {
							var u float64
							if g.key.method == MethodNaive {
								// Hoisted kernel moments; bit-identical to
								// NaiveSeriesStat on the raw series.
								u = mg.sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
							} else {
								u = mg.sp.Param(e.seriesStat(pair.U), e.seriesStat(pair.V))
							}
							v, verr := mg.sp.EvalOrNaN(t[i], u, numSamples)
							if verr != nil {
								return verr
							}
							vals[i] = v
						}
					}
					for _, k := range mg.idxs {
						if items[k].Spec.Kind != plan.KindTopK {
							local.pairs[k] = kernel.CompactPairs(local.pairs[k], chunk, vals, items[k].Spec.Interval)
							if keepValues {
								local.values[k] = kernel.CompactValues(local.values[k], vals, items[k].Spec.Interval)
							}
						} else {
							for i := range chunk {
								local.heaps[k].Offer(chunk[i], vals[i])
							}
						}
					}
				}
			}
		}
		parts[b] = local
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]QueryResult, len(items))
	for k, p := range items {
		if p.Spec.Kind != plan.KindTopK {
			perBlock := make([][]timeseries.Pair, len(parts))
			for b := range parts {
				perBlock[b] = parts[b].pairs[k]
			}
			out[k] = QueryResult{Pairs: par.FlattenBlocks(perBlock)}
			if keepValues {
				perBlockValues := make([][]float64, len(parts))
				for b := range parts {
					perBlockValues[b] = parts[b].values[k]
				}
				out[k].Values = par.FlattenBlocks(perBlockValues)
			}
			continue
		}
		// Merge the per-block heaps: the retained set is a function of the
		// offered (value, pair) multiset under a total order, so the merge is
		// independent of the block partition.
		final := scape.NewTopHeap(p.Spec.K, p.Spec.Largest)
		for b := range parts {
			bp, bv := parts[b].heaps[k].Sorted()
			for i := range bp {
				final.Offer(bp[i], bv[i])
			}
		}
		topPairs, values := final.Sorted()
		out[k] = QueryResult{Pairs: topPairs, Values: values}
	}
	return out, sources, nil
}
