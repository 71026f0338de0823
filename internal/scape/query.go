package scape

import (
	"fmt"
	"slices"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/stats"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// pairSpec validates that m names a pairwise measure and returns its spec.
func pairSpec(m stats.Measure) (*measure.Spec, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("%w: %v is not a pairwise measure", ErrBadQuery, m)
	}
	return sp, nil
}

// PairQuery describes one pairwise interval query of a batch: every sequence
// pair whose measure value lies in Interval.  MET and MER queries are the
// half-bounded and bounded instances of the same predicate.
type PairQuery struct {
	Measure  stats.Measure
	Interval interval.Interval
}

// PairInterval answers a pairwise interval query (the unified MET/MER scan):
// every sequence pair whose measure value, as represented by the index, lies
// in iv.  It is a PairBatch of one.
func (idx *Index) PairInterval(m stats.Measure, iv interval.Interval) ([]timeseries.Pair, error) {
	out, err := idx.PairBatch([]PairQuery{{Measure: m, Interval: iv}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SeriesInterval answers an interval query over an L-measure: the series whose
// measure value lies in iv.
func (idx *Index) SeriesInterval(m stats.Measure, iv interval.Interval) ([]timeseries.SeriesID, error) {
	if iv.Empty() {
		return nil, fmt.Errorf("%w: empty interval %v", ErrBadQuery, iv)
	}
	col, _, err := idx.locationOf(m)
	if err != nil {
		return nil, err
	}
	lo, hi := keyWindow(col.keys, iv)
	if hi <= lo {
		return nil, nil
	}
	return slices.Clone(col.ids[lo:hi]), nil
}

// PairBatch answers a batch of pairwise interval queries in one pass over the
// pivot nodes: every node is visited once and serves all queries from its
// ξ-containers before the scan moves on, sharing the per-node α lookups and the
// node traversal across the batch.  out[i] holds the result of qs[i] and is
// identical — including order — to the result of the corresponding single
// PairInterval call.
func (idx *Index) PairBatch(qs []PairQuery) ([][]timeseries.Pair, error) {
	out, _, err := idx.scanBlocks(qs, false)
	return out, err
}

// PairBatchNodes is PairBatch that also reports where each pivot node's block
// ends: ends[i][n] is the length of out[i] after node n, in the index's
// canonical (Common, Cluster) node order (NumPivots entries per query, one slab
// for the call).  A sharded coordinator uses the offsets to interleave several
// shards' node blocks into the global node order: every pivot node lives wholly
// on one shard and each shard's blocks are already canonically sorted, so the
// interleaving reconstructs the byte-exact order a single unsharded index
// would produce.
func (idx *Index) PairBatchNodes(qs []PairQuery) (out [][]timeseries.Pair, ends [][]int32, err error) {
	return idx.scanBlocks(qs, true)
}

// NodePivot returns the pivot of node i, 0 <= i < NumPivots().
func (idx *Index) NodePivot(i int) symex.Pivot { return idx.pivots[i].pivot }

// scanBlocks is the one interval scan over the pivot nodes: the queries are
// compiled once, every worker walks a contiguous block of nodes — not one task
// per node, so the dispatch cost stays negligible next to the container scans —
// answering all queries per node straight into its per-query buffer, and the
// buffers are concatenated per query in block order.  idx.pivots is sorted
// deterministically at build time, so the merged result is byte-identical at
// any parallelism level and across rebuilds.
//
// The per-block buffers are pooled scratch: the merge copies them into each
// query's answer, allocated once at its final size, and they go back to the
// pool when the scan returns.
func (idx *Index) scanBlocks(qs []PairQuery, wantEnds bool) ([][]timeseries.Pair, [][]int32, error) {
	scans := make([]pairScan, len(qs))
	for qi, q := range qs {
		ps, err := idx.compilePair(q)
		if err != nil {
			return nil, nil, err
		}
		scans[qi] = ps
	}
	nodes := len(idx.pivots)
	var ends [][]int32
	if wantEnds {
		slab := make([]int32, len(qs)*nodes)
		ends = make([][]int32, len(qs))
		for qi := range ends {
			ends[qi] = slab[qi*nodes : (qi+1)*nodes]
		}
	}
	blocks := par.Blocks(nodes, idx.opts.Parallelism)
	parts := make([]*scanScratch, len(blocks))
	defer func() {
		for _, sc := range parts {
			scanScratchPool.Put(sc)
		}
	}()
	// Compiled scans cannot fail; Do only fans the blocks out.
	_ = par.Do(len(blocks), idx.opts.Parallelism, func(b int) error {
		sc, _ := scanScratchPool.Get()
		local := sc.reset(len(qs))
		for i := blocks[b].Lo; i < blocks[b].Hi; i++ {
			for qi := range scans {
				local[qi] = idx.scanNode(i, scans[qi], local[qi])
				if wantEnds {
					ends[qi][i] = int32(len(local[qi])) // block-local until merged
				}
			}
		}
		parts[b] = sc
		return nil
	})
	out := make([][]timeseries.Pair, len(qs))
	perBlock := make([][]timeseries.Pair, len(parts))
	for qi := range qs {
		base := 0
		for b := range parts {
			perBlock[b] = parts[b].pairs[qi]
			if wantEnds && base > 0 {
				for i := blocks[b].Lo; i < blocks[b].Hi; i++ {
					ends[qi][i] += int32(base)
				}
			}
			base += len(perBlock[b])
		}
		out[qi] = par.FlattenBlocks(perBlock)
	}
	return out, ends, nil
}

// scanScratch is one node block's working set of a scan: pairs[qi] collects
// query qi's matches in node order until the merge copies them out.
type scanScratch struct {
	pairs [][]timeseries.Pair
}

var scanScratchPool par.Scratch[scanScratch]

// reset readies n empty per-query buffers, reusing the ones the scratch
// already holds.
func (sc *scanScratch) reset(n int) [][]timeseries.Pair {
	sc.pairs = slices.Grow(sc.pairs[:0], n)[:n]
	for qi := range sc.pairs {
		sc.pairs[qi] = sc.pairs[qi][:0]
	}
	return sc.pairs
}

// PairValue returns the index's representation of a pairwise measure for a
// single sequence pair (the value ‖α‖·ξ, put through the spec's transform for
// D-measures).  It is mainly useful for diagnostics and tests; bulk
// computation should go through the engine.
func (idx *Index) PairValue(m stats.Measure, e timeseries.Pair) (float64, error) {
	sp, err := pairSpec(m)
	if err != nil {
		return 0, err
	}
	slot := idx.baseSlot(sp.Base)
	if slot < 0 {
		return 0, fmt.Errorf("scape: pair %v not present in the index", e)
	}
	for i := range idx.pivots {
		pm := &idx.pivots[i].measures[slot]
		var found *sequenceNode
		var foundXi float64
		pm.xi.Ascend(func(key float64, sn *sequenceNode) bool {
			if sn.pair == e {
				found = sn
				foundXi = key
				return false
			}
			return true
		})
		if found == nil {
			continue
		}
		if !sp.Derived() {
			return pm.alphaNorm * foundXi, nil
		}
		if !idx.derivedSet[m] {
			return 0, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, m)
		}
		u := sp.Param(idx.moments.Stat(e.U), idx.moments.Stat(e.V))
		return sp.Value(pm.alphaNorm*foundXi, u, idx.numSamples)
	}
	return 0, fmt.Errorf("scape: pair %v not present in the index", e)
}

// pairScan is one compiled pairwise interval query: the validated spec and
// interval, computed once and applied per node.
type pairScan struct {
	sp *measure.Spec
	iv interval.Interval
	// slot is the position of the spec's base T-measure in a node's measures.
	slot int
	// col is a derived query's value column (nil when the interval misses the
	// measure's declared range).
	col *valueColumn
}

// compilePair validates a pairwise interval query and precomputes its
// query-level shape.
func (idx *Index) compilePair(q PairQuery) (pairScan, error) {
	if q.Interval.Empty() {
		return pairScan{}, fmt.Errorf("%w: empty interval %v", ErrBadQuery, q.Interval)
	}
	sp, err := pairSpec(q.Measure)
	if err != nil {
		return pairScan{}, err
	}
	if sp.Derived() && !idx.derivedSet[q.Measure] {
		return pairScan{}, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, q.Measure)
	}
	ps := pairScan{sp: sp, iv: q.Interval, slot: idx.baseSlot(sp.Base)}
	if ps.slot < 0 {
		return pairScan{}, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, sp.Base)
	}
	// An interval that misses the measure's declared range matches no
	// defined value: answer it without filling the column.
	if sp.Derived() && !(sp.Bounded && misses(q.Interval, sp.RangeMin, sp.RangeMax)) {
		ps.col = idx.columnOf(sp)
	}
	return ps, nil
}

// scanNode answers one compiled pairwise query from pivot node i, appending
// matching pairs to out in scalar-projection order.  A D-measure node whose
// stored extremes miss the interval is skipped; any other tests its entries.
func (idx *Index) scanNode(i int, ps pairScan, out []timeseries.Pair) []timeseries.Pair {
	pm := &idx.pivots[i].measures[ps.slot]
	if !ps.sp.Derived() {
		return nodeBaseInterval(pm, ps.iv, out)
	}
	// Every defined value of the node lies within its stored extremes, so a
	// node whose extremes miss the interval (or that has no defined value)
	// matches nothing.
	if ps.col == nil || misses(ps.iv, ps.col.extremes[i][0], ps.col.extremes[i][1]) {
		return out
	}
	// The column is in the base container's order: entry j is pm.xi's j-th.
	for j, v := range idx.nodeValues(ps.col, i) {
		if ps.iv.Contains(v) {
			out = append(out, pm.xi.node(j).pair)
		}
	}
	return out
}

// nodeBaseInterval scans one pivot node's state of a T-measure for an interval
// query: the value interval maps into the scalar projection domain through the
// modified bounds τ' = τ/‖α_q‖ (Section 5.2), followed by an ordered scan of
// the ξ-container.
func nodeBaseInterval(pm *pivotMeasure, iv interval.Interval, out []timeseries.Pair) []timeseries.Pair {
	if pm.alphaNorm == 0 {
		// Degenerate pivot: every value it represents is 0.
		if iv.Contains(0) {
			pm.xi.Ascend(func(_ float64, sn *sequenceNode) bool {
				out = append(out, sn.pair)
				return true
			})
		}
		return out
	}
	pm.xi.ascendInterval(scaleInterval(iv, pm.alphaNorm), func(_ float64, sn *sequenceNode) bool {
		out = append(out, sn.pair)
		return true
	})
	return out
}

// scaleInterval divides both finite endpoints by a positive norm, mapping a
// value-space interval into ξ space for a T-measure container.
func scaleInterval(iv interval.Interval, norm float64) interval.Interval {
	if !iv.Lo.Unbounded {
		iv.Lo.Value /= norm
	}
	if !iv.Hi.Unbounded {
		iv.Hi.Value /= norm
	}
	return iv
}
