package shard

import (
	"fmt"
	"math"
	"slices"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// Scatter-gather query execution.  A coordinator epoch is a core.Backend: the
// shared pipeline (core.Run) validates, plans, caches and stores exactly as
// it does for a single engine, and this file answers only
// what sharding changes — how an estimate or a count is summed over shards,
// which shard evaluates a pair, and how resolved items are scattered and
// their results merged.  The design invariant throughout: MethodAuto is
// resolved against the global table statistics (never the per-shard ones),
// the shards execute with the resolved concrete method, and every merge is in
// a deterministic order — so results are byte-identical to a single unsharded
// engine at any shard count and parallelism.
//
// The result cache lives here too, at the global merge layer: one entry per
// merged result, so a hit skips the whole fan-out.  The shard engines run
// with their own caches disabled — caching both layers would double the
// memory for results the coordinator already holds merged.

func (cs *coordState) Epoch() int             { return cs.epoch }
func (cs *coordState) Table() plan.TableStats { return cs.table }
func (cs *coordState) Cache() *qcache.Cache   { return cs.cache }

// Replica returns shard 0: the raw window and the per-series state are
// replicated on every shard, so any one of them answers L-measure queries and
// a MEC's per-series part exactly like a single engine.
func (cs *coordState) Replica() core.View { return cs.views[0] }

// Selectivity assembles the row count from the shards.  Per-pivot-node
// counts are additive and the shard pivot sets are disjoint, so the summed
// Rows equal the global index's count, whatever the shard count.
func (cs *coordState) Selectivity(spec plan.QuerySpec) (scape.Selectivity, error) {
	var total scape.Selectivity
	for _, v := range cs.views {
		s, err := v.Selectivity(spec)
		if err != nil {
			return scape.Selectivity{}, err
		}
		total.Rows += s.Rows
	}
	return total, nil
}

// BaseValues asks each shard once for the base values of the pairs it owns
// (pairOwner), so a propagation uses the owning shard's pivot summary — the
// same summary a single engine holds — and a naive evaluation reads the
// owning shard's covariance column where the epoch has one.
func (cs *coordState) BaseValues(base measure.Measure, pairs []timeseries.Pair, method core.Method, t []float64) error {
	w, _ := routePool.Get()
	defer routePool.Put(w)
	for s, v := range cs.views {
		w.pairs, w.at = w.pairs[:0], w.at[:0]
		for i, pair := range pairs {
			if cs.pairOwner(pair) == s {
				w.pairs = append(w.pairs, pair)
				w.at = append(w.at, i)
			}
		}
		if len(w.pairs) == 0 {
			continue
		}
		w.t = slices.Grow(w.t[:0], len(w.pairs))[:len(w.pairs)]
		if err := v.BaseValues(base, w.pairs, method, w.t); err != nil {
			return err
		}
		for k, i := range w.at {
			t[i] = w.t[k]
		}
	}
	return nil
}

// routeScratch is one BaseValues call's working set: one shard's share of
// the pairs, their positions in the call and their values.
type routeScratch struct {
	pairs []timeseries.Pair
	at    []int
	t     []float64
}

var routePool par.Scratch[routeScratch]

// Execute answers resolved items cold by scatter-gather.  L-measure items do
// not fan out and index top-k items run their streaming merge; everything
// else is scattered once per group — the index-method interval items, then
// the sweep-method items per concrete method — so each shard answers a group
// through one fused pass (its index's batched node traversal, its
// multi-predicate sweep).
func (cs *coordState) Execute(items []core.Item, actuals []core.Actual) ([]core.QueryResult, error) {
	out := make([]core.QueryResult, len(items))
	var index, naive, affine []int
	for i, it := range items {
		var err error
		switch {
		case it.Location:
			// Per-series state is replicated: shard 0 answers exactly like a
			// single engine.
			var res []core.QueryResult
			if res, err = cs.views[0].Execute([]core.Item{it}, nil); err == nil {
				out[i] = res[0]
			}
		case it.Method == core.MethodNaive:
			naive = append(naive, i)
		case it.Method == core.MethodAffine:
			affine = append(affine, i)
		case it.Spec.Kind == plan.KindTopK:
			out[i], err = cs.indexTopK(it.Spec)
		default:
			index = append(index, i)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := cs.indexIntervals(items, index, out); err != nil {
		return nil, err
	}
	for _, group := range [][]int{naive, affine} {
		if err := cs.sweep(items, group, out, actuals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep scatters the sweep-method items items[group...] (all of one method)
// to every shard and merges per item.  Interval results k-way merge by (U, V):
// the shard universes are disjoint sorted subsets of the canonical pair order,
// so the merge reproduces a single engine's sweep order exactly.  Top-k
// results re-offer each shard's local top-k into one global heap: the heap's
// (value, pair-id) total order is scan-order-independent, so the retained set
// equals a single engine's.  Sketch prescreen counts sum over the shards, and
// an affine item filled its base values if any shard's column was filled for it.
func (cs *coordState) sweep(items []core.Item, group []int, out []core.QueryResult, actuals []core.Actual) error {
	if len(group) == 0 {
		return nil
	}
	sub := make([]core.Item, len(group))
	for j, i := range group {
		sub[j] = items[i]
	}
	shardRes := make([][]core.QueryResult, len(cs.views))
	shardActs := make([][]core.Actual, len(cs.views)) // nil per shard unless actuals are wanted
	err := par.Do(len(cs.views), len(cs.views), func(s int) error {
		if actuals != nil {
			shardActs[s] = make([]core.Actual, len(sub))
		}
		var err error
		shardRes[s], err = cs.views[s].Execute(sub, shardActs[s])
		return err
	})
	if err != nil {
		return err
	}
	perShard := make([]core.QueryResult, len(cs.views))
	for j, i := range group {
		for s := range cs.views {
			perShard[s] = shardRes[s][j]
			if actuals != nil {
				actuals[i].Sketched += shardActs[s][j].Sketched
				actuals[i].Refined += shardActs[s][j].Refined
				if b := shardActs[s][j].BaseValues; actuals[i].BaseValues != core.BaseFilled {
					actuals[i].BaseValues = b
				}
			}
		}
		spec := items[i].Spec
		if spec.Kind != plan.KindTopK {
			out[i] = core.QueryResult{Pairs: mergePairLists(perShard)}
			continue
		}
		heap := scape.NewTopHeap(spec.K, spec.Largest)
		for _, r := range perShard {
			for x := range r.Pairs {
				heap.Offer(r.Pairs[x], r.Values[x])
			}
		}
		pairs, values := heap.Sorted()
		out[i] = core.QueryResult{Pairs: pairs, Values: values}
	}
	return nil
}

// mergePairLists k-way merges per-shard pair lists sorted by (U, V).
func mergePairLists(results []core.QueryResult) []timeseries.Pair {
	total := 0
	for _, r := range results {
		total += len(r.Pairs)
	}
	if total == 0 {
		return nil
	}
	out := make([]timeseries.Pair, 0, total)
	heads := make([]int, len(results))
	for len(out) < total {
		best := -1
		for s, r := range results {
			if heads[s] >= len(r.Pairs) {
				continue
			}
			if best == -1 || timeseries.ComparePairs(r.Pairs[heads[s]], results[best].Pairs[heads[best]]) < 0 {
				best = s
			}
		}
		out = append(out, results[best].Pairs[heads[best]])
		heads[best]++
	}
	return out
}

// indexIntervals scatters the index-method interval items items[group...] to
// every shard once — each shard answers them all in one traversal of its pivot
// nodes, as flat per-query pair lists with per-node end offsets — and
// concatenates the node blocks per item along the epoch's merge schedule, the
// canonical (Common, Cluster) interleaving of the shards' node lists.  A single
// engine's result is the concatenation of its node blocks in exactly that
// order, and every pivot node lives wholly on one shard, so the merged
// concatenation is byte-identical.
func (cs *coordState) indexIntervals(items []core.Item, group []int, out []core.QueryResult) error {
	if len(group) == 0 {
		return nil
	}
	qs := make([]scape.PairQuery, len(group))
	for j, i := range group {
		qs[j] = items[i].Spec.PairQuery()
	}
	pairs := make([][][]timeseries.Pair, len(cs.views)) // pairs[shard][query]
	ends := make([][][]int32, len(cs.views))
	err := par.Do(len(cs.views), len(cs.views), func(s int) error {
		idx := cs.views[s].Index()
		if idx == nil {
			return core.ErrNoIndex
		}
		var err error
		pairs[s], ends[s], err = idx.PairBatchNodes(qs)
		return err
	})
	if err != nil {
		return err
	}
	for j, i := range group {
		total := 0
		for s := range pairs {
			total += len(pairs[s][j])
		}
		if total == 0 {
			continue
		}
		merged := make([]timeseries.Pair, 0, total)
		for _, run := range cs.schedule {
			from, e := pairs[run.shard][j], ends[run.shard][j]
			lo := int32(0)
			if run.lo > 0 {
				lo = e[run.lo-1]
			}
			merged = append(merged, from[lo:e[run.hi-1]]...)
		}
		out[i] = core.QueryResult{Pairs: merged}
	}
	return nil
}

// mergeRun is one step of a merge schedule: the blocks of nodes [lo, hi) of
// one shard's index, which are adjacent in the global node order.
type mergeRun struct {
	shard, lo, hi int32
}

// mergeSchedule interleaves the shard indexes' node lists — each in canonical
// (Common, Cluster) order, pairwise disjoint — into the global canonical order,
// as maximal runs of one shard's nodes.  A node list changes only when a pivot
// loses or regains its last relationship, but the schedule is cheap next to an
// Advance, so every coordinator epoch derives its own.  Nil when the shards
// carry no index.
func mergeSchedule(views []core.View) []mergeRun {
	heads := make([]int32, len(views))
	var runs []mergeRun
	for {
		best := -1
		var bestPivot symex.Pivot
		for s, v := range views {
			idx := v.Index()
			if idx == nil || int(heads[s]) >= idx.NumPivots() {
				continue
			}
			if p := idx.NodePivot(int(heads[s])); best == -1 || pivotBefore(p, bestPivot) {
				best, bestPivot = s, p
			}
		}
		if best == -1 {
			return runs
		}
		heads[best]++
		if n := len(runs); n > 0 && runs[n-1].shard == int32(best) {
			runs[n-1].hi = heads[best]
		} else {
			runs = append(runs, mergeRun{shard: int32(best), lo: heads[best] - 1, hi: heads[best]})
		}
	}
}

func pivotBefore(a, b symex.Pivot) bool {
	if a.Common != b.Common {
		return a.Common < b.Common
	}
	return a.Cluster < b.Cluster
}

// indexTopK runs the streaming top-k merge: one SCAPE best-first cursor per
// shard, one global k-heap.  Each round polls the shard whose next pivot node
// has the best optimistic bound (ties to the lowest shard id) and steps its
// cursor against the global heap — the heap's running k-th value is thereby
// broadcast back to every shard, so a lagging shard's remaining nodes are
// pruned against the global v_k, not a local one.  The merge state is
// O(shards + k): cursors hold per-node bounds, never materialized pair lists.
//
// Termination mirrors scape.PairTopK: once the heap is full and the best
// remaining bound no longer meets v_k (BoundBeats — inclusive, so boundary
// ties are still scanned for the pair-id tie-break), no shard can improve the
// result.  Any entry of the true top-k always beats every running v_k, so the
// retained set — and with (value, pair-id) ordering, the result bytes — are
// identical to a single engine's.
func (cs *coordState) indexTopK(spec plan.QuerySpec) (core.QueryResult, error) {
	cursors := make([]*scape.TopKCursor, len(cs.views))
	for s, v := range cs.views {
		idx := v.Index()
		if idx == nil {
			return core.QueryResult{}, core.ErrNoIndex
		}
		cur, err := idx.NewTopKCursor(spec.Measure, spec.Largest)
		if err != nil {
			return core.QueryResult{}, err
		}
		cursors[s] = cur
	}
	heap := scape.NewTopHeap(spec.K, spec.Largest)
	for {
		best := -1
		var bestBound float64
		for s, cur := range cursors {
			b, ok := cur.NextBound()
			if !ok {
				continue
			}
			switch {
			case best == -1:
				best, bestBound = s, b
			case math.IsNaN(bestBound) && !math.IsNaN(b):
				best, bestBound = s, b
			case boundBetter(b, bestBound, spec.Largest):
				best, bestBound = s, b
			}
		}
		if best == -1 {
			break
		}
		if vk, full := heap.Threshold(); full && !scape.BoundBeats(bestBound, vk, spec.Largest) {
			break
		}
		if _, err := cursors[best].Step(heap); err != nil {
			return core.QueryResult{}, err
		}
	}
	pairs, values := heap.Sorted()
	return core.QueryResult{Pairs: pairs, Values: values}, nil
}

// boundBetter reports whether bound b strictly beats the incumbent, so bound
// ties resolve to the lowest shard id.
func boundBetter(b, incumbent float64, largest bool) bool {
	if largest {
		return b > incumbent
	}
	return b < incumbent
}

// pairOwner returns the shard owning a pair: the owner of its assigned
// pivot.  Every pair of the window has one, because Build checks that the
// assignment is total; a pair without a slot — a series paired with itself,
// a pair outside the window — goes to shard 0, which evaluates or rejects it
// as every shard would.
func (cs *coordState) pairOwner(pair timeseries.Pair) int {
	layout := cs.rel.Layout()
	slot, ok := layout.Slot(pair)
	if !ok {
		return 0
	}
	return cs.owner[layout.Assignments()[slot].Pivot]
}

// one answers a single query as a batch of one.
func (c *Coordinator) one(spec plan.QuerySpec, method core.Method) (core.QueryResult, error) {
	out, _, err := core.Run(c.state(), []plan.QuerySpec{spec}, method, false)
	if err != nil {
		return core.QueryResult{}, err
	}
	return out[0], nil
}

// Interval answers the unified interval query (MET/MER) by scatter-gather.
func (c *Coordinator) Interval(m measure.Measure, iv interval.Interval, method core.Method) (core.QueryResult, error) {
	return c.one(plan.Interval(m, iv), method)
}

// TopK answers a top-k (MEK) query; the index method runs the streaming
// per-shard merge.
func (c *Coordinator) TopK(m measure.Measure, k int, largest bool, method core.Method) (core.QueryResult, error) {
	return c.one(plan.TopK(m, k, largest), method)
}

// Batch answers a mixed list of interval, top-k and compute specs against one
// pinned coordinator epoch; out[i] is identical to the matching single query.
func (c *Coordinator) Batch(specs []plan.QuerySpec, method core.Method) ([]core.QueryResult, error) {
	out, _, err := core.Run(c.state(), specs, method, false)
	return out, err
}

// IntervalBatch is Batch over interval specs.
func (c *Coordinator) IntervalBatch(qs []core.IntervalQuery, method core.Method) ([]core.QueryResult, error) {
	specs := make([]plan.QuerySpec, len(qs))
	for i, q := range qs {
		specs[i] = plan.Interval(q.Measure, q.Interval)
	}
	return c.Batch(specs, method)
}

// ComputeLocation answers an L-measure MEC query.
func (c *Coordinator) ComputeLocation(m measure.Measure, ids []timeseries.SeriesID, method core.Method) ([]float64, error) {
	if m.Pairwise() {
		return nil, fmt.Errorf("shard: %v is not an L-measure: %w", m, measure.ErrUnknownMeasure)
	}
	res, err := c.one(core.ComputeSpec(m, ids), method)
	return res.Values, err
}

// ComputePairwise answers a pairwise MEC query.
func (c *Coordinator) ComputePairwise(m measure.Measure, ids []timeseries.SeriesID, method core.Method) ([][]float64, error) {
	if !m.Pairwise() {
		return nil, fmt.Errorf("shard: %v is not a pairwise measure: %w", m, measure.ErrUnknownMeasure)
	}
	res, err := c.one(core.ComputeSpec(m, ids), method)
	return res.Matrix, err
}
