package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/timeseries"
)

// This file is the query pipeline, written once.  Every query the engine
// serves is a plan.QuerySpec plus a Method — interval (MET/MER), top-k (MEK)
// or compute (MEC), single or batched, on one engine or on S shards — and runs
//
//	validate → plan → cache → execute → store
//
// against one pinned epoch of a Backend; a compute spec skips the cache and
// is answered straight from the epoch's per-series state and base values.
// The pipeline owns spec validation, MethodAuto resolution and method
// pricing, the result-cache protocol and the Explain actuals; a Backend
// answers only what genuinely differs between one engine and a sharded
// coordinator.  engineState (one epoch of an Engine) and shard's coordinator
// epoch are the two implementations.
//
// Cache correctness contract (pinned by the cache determinism harnesses):
// every result served from the cache is byte-identical to the cold execution
// of the same query at the same epoch.
//
//   - Exact hits return the stored slices unchanged.
//   - Containment filters stored rows by their stored values — the same
//     values the execution methods decide membership by — and filtering
//     preserves the method's canonical result order, of which the narrower
//     result is a subsequence.
//   - Delta repair re-evaluates the candidate set (cached rows ∪ stale pairs
//     of the crossed epochs) with the affine base values the sweep reads
//     (BaseValues), in canonical pair order, and only commits when the repaired row count
//     equals the index's exact selectivity: a subset of the true result with
//     the true result's cardinality is the true result.  Any disagreement
//     falls back to a cold run.

// Backend is one pinned epoch the pipeline can run against.  Its methods must
// be deterministic in the epoch state, so that plans and results are
// identical at any parallelism and any shard count.
type Backend interface {
	// Epoch, Table and Cache are the planner and cache handles: the epoch
	// number cache entries are stamped with, the table statistics MethodAuto
	// is priced against with plan.DefaultCostModel (global ones on a sharded
	// backend, so the chosen method does not depend on the shard count), and
	// the result cache (nil when disabled).
	Epoch() int
	Table() plan.TableStats
	Cache() *qcache.Cache
	// Replica returns a single-engine epoch holding the state that is
	// replicated rather than partitioned — the raw window and the per-series
	// statistics.  L-measure and naive compute specs are answered from it.
	Replica() View

	// Selectivity is the index's row count for an interval spec over a
	// measure Table().Indexes, equal to the index scan's result size.  A
	// priced plan that reports it (Explain, View.Plan) and delta repair's
	// completeness check ask for it — MethodAuto never does.
	Selectivity(spec plan.QuerySpec) (scape.Selectivity, error)
	// BaseValues writes into t the values of the base T-measure base for
	// canonical pairs by a concrete sweep method (MethodNaive or
	// MethodAffine), the bits that method's sweep reads: the cells of a
	// pairwise compute spec, delta repair's candidates and the values the
	// cache stores, a chunk at a time (pairValues).
	BaseValues(base measure.Measure, pairs []timeseries.Pair, method Method, t []float64) error
	// Execute answers resolved items cold, out[i] for items[i].  A non-nil
	// actuals is index-aligned with items and receives the sketch counts.
	Execute(items []Item, actuals []Actual) ([]QueryResult, error)
}

// Item is one validated interval/top-k query with its concrete method.  Compute
// specs never become Items: Run answers them itself.
type Item struct {
	Spec   plan.QuerySpec
	Method Method
	// Location marks an L-measure query: answered per series from replicated
	// state, never cached and never fanned out.
	Location bool
}

// Actual is what the pipeline observed while answering one item (Explain):
// the cache tier that served it with the size of a repair's delta, the pairs
// a naive sweep's bound providers prescreened (Sketched) and the pairs it
// still sent to the exact kernels (Refined), or where a sweep's base values
// came from: an affine sweep filled or reused the epoch's base column
// (BaseFilled, BaseReused), a naive one read the fit's covariance column
// (BaseFit); empty when the sweep evaluated them or none ran.
type Actual struct {
	Tier       qcache.Tier
	Repaired   int
	Sketched   int
	Refined    int
	BaseValues string
}

// Run answers a batch of interval, top-k and compute specs against one
// backend epoch.  out[i] belongs to specs[i] and equals the single-query
// answer exactly: a single query is a batch of one.  The whole batch is
// validated before anything executes, so a malformed batch fails with its
// typed error and no side effect.  With wantPlans every spec is priced (a concrete method keeps
// the alternatives' cost columns) and plans[i] carries the actuals:
// ActualRows per item, and the wall time of the shared execution as Duration
// on every plan, because fused scans cannot be attributed per item.
func Run(b Backend, specs []plan.QuerySpec, method Method, wantPlans bool) ([]QueryResult, []plan.Plan, error) {
	for _, spec := range specs {
		if err := validateSpec(spec); err != nil {
			return nil, nil, err
		}
	}
	if err := checkMethod(method); err != nil {
		return nil, nil, err
	}
	var plans []plan.Plan
	var acts []Actual
	var start time.Time
	if wantPlans {
		plans = make([]plan.Plan, len(specs))
		acts = make([]Actual, len(specs))
		for i, spec := range specs {
			p, err := price(b, spec, method)
			if err != nil {
				return nil, nil, err
			}
			plans[i] = p
		}
		start = time.Now()
	}

	out := make([]QueryResult, len(specs))
	cache := b.Cache()
	// cold[k] answers specs[coldAt[k]]; cold[storeAt[k]] missed the cache and
	// is stored under storeKeys[k] once executed.
	var cold []Item
	var coldAt, storeAt []int
	var storeKeys []qcache.Key
	for i, spec := range specs {
		it := Item{Spec: spec, Method: method}
		if sp, ok := measure.Find(spec.Measure); ok {
			it.Location = sp.Location()
		}
		if wantPlans {
			it.Method = plans[i].Method
		} else if method == MethodAuto {
			it.Method = decide(b, spec).Method
		}
		if spec.Kind == plan.KindCompute {
			res, err := compute(b, spec, it.Method)
			if err != nil {
				return nil, nil, err
			}
			out[i] = res
			continue
		}
		if cache != nil && !it.Location {
			key := cacheKey(it)
			if res, act, ok := cacheServe(b, cache, it, key); ok {
				out[i] = res
				if wantPlans {
					acts[i] = act
				}
				continue
			}
			cache.Miss()
			storeKeys = append(storeKeys, key)
			storeAt = append(storeAt, len(cold))
		}
		if cold == nil {
			cold = make([]Item, 0, len(specs)-i)
			coldAt = make([]int, 0, len(specs)-i)
		}
		cold = append(cold, it)
		coldAt = append(coldAt, i)
	}
	if len(cold) > 0 {
		var coldActs []Actual
		if wantPlans {
			coldActs = make([]Actual, len(cold))
		}
		results, err := b.Execute(cold, coldActs)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range coldAt {
			out[i] = results[k]
			if cold[k].Spec.Kind == plan.KindInterval {
				// A sweep hands its rows' values over for cacheStore only:
				// interval results carry nil Values by contract.
				out[i].Values = nil
			}
			if wantPlans {
				acts[i] = coldActs[k]
			}
		}
		for k, at := range storeAt {
			cacheStore(b, cache, cold[at], storeKeys[k], results[at])
		}
	}
	if wantPlans {
		dur := time.Since(start)
		for i := range plans {
			plans[i].Duration = dur
			plans[i].ActualRows = out[i].Size()
			// A repeated query reports what actually happened — the cache tier
			// that served it and the delta's size — not a pretended full run.
			plans[i].CacheTier = acts[i].Tier.String()
			plans[i].CacheRepairedPairs = acts[i].Repaired
			plans[i].SketchedPairs = acts[i].Sketched
			plans[i].SketchRefinedPairs = acts[i].Refined
			plans[i].BaseValues = acts[i].BaseValues
		}
	}
	return out, plans, nil
}

// runOne answers a single query as a batch of one.
func runOne(b Backend, spec plan.QuerySpec, method Method) (QueryResult, error) {
	out, _, err := Run(b, []plan.QuerySpec{spec}, method, false)
	if err != nil {
		return QueryResult{}, err
	}
	return out[0], nil
}

// validateSpec rejects malformed specs with the typed sentinels shared by
// every entry point.  A compute spec's measure and series are checked where
// they are read, as a sweep checks an interval spec's measure.
func validateSpec(spec plan.QuerySpec) error {
	switch spec.Kind {
	case plan.KindInterval:
		if spec.Interval.Empty() {
			return fmt.Errorf("%w: %v", ErrEmptyRange, spec.Interval)
		}
	case plan.KindTopK:
		if spec.K < 1 {
			return fmt.Errorf("%w: %d", ErrBadTopK, spec.K)
		}
	case plan.KindCompute:
	default:
		return fmt.Errorf("core: %v is not a query kind", spec.Kind)
	}
	return nil
}

func checkMethod(method Method) error {
	if method != MethodAuto && !method.Concrete() {
		return fmt.Errorf("%w: %v", ErrBadMethod, method)
	}
	return nil
}

// decide plans a spec against the backend's epoch from its table statistics
// alone: they say which measures the index covers, so a non-indexable measure
// (e.g. Jaccard) or one a restricted index was built without plans among the
// sweeps, and no row count could change the choice.  MethodAuto resolves
// through it and never asks the index anything.
func decide(b Backend, spec plan.QuerySpec) plan.Plan {
	return plan.DefaultCostModel().Plan(spec, b.Table(), nil)
}

// price is the plan Explain and View.Plan report: decide's choice, or the
// method the caller forces, with an exact row count of an interval spec as
// EstimatedRows where one is cheap — the index's count for a measure the
// index covers, and for an L-measure the O(n) count of the per-series values
// the method reads.  The count is taken after the choice and only moves the
// emit term every method shares.
func price(b Backend, spec plan.QuerySpec, method Method) (plan.Plan, error) {
	table := b.Table()
	p := decide(b, spec)
	if method != MethodAuto {
		p = p.WithMethod(method)
	}
	if spec.Kind != plan.KindInterval {
		return p, nil
	}
	var sel scape.Selectivity
	var err error
	switch sp, ok := measure.Find(spec.Measure); {
	case table.Indexes(spec.Measure):
		sel, err = b.Selectivity(spec)
	case ok && sp.Location():
		sel.Rows, err = b.Replica().locationRows(spec.Measure, spec.Interval, p.Method)
	default:
		return p, nil
	}
	if err != nil {
		return plan.Plan{}, err
	}
	return plan.DefaultCostModel().Plan(spec, table, &sel).WithMethod(p.Method), nil
}

// cacheKey builds the cache key of a pairwise item.  L-measure items never
// reach the cache: their results are cheap per-series reads with no pairwise
// scan to save.
func cacheKey(it Item) qcache.Key {
	if it.Spec.Kind == plan.KindTopK {
		return qcache.TopKKey(it.Spec.Measure, it.Method, it.Spec.K, it.Spec.Largest)
	}
	return qcache.IntervalKey(it.Spec.Measure, it.Method, it.Spec.Interval)
}

// cacheServe answers one item from the cache if any reuse tier applies:
// exact/containment through Lookup, then delta repair.  The returned
// QueryResult shares the cache's backing arrays (read-only by contract).
func cacheServe(b Backend, cache *qcache.Cache, it Item, key qcache.Key) (QueryResult, Actual, bool) {
	if r, tier, ok := cache.Lookup(key, b.Epoch()); ok {
		res := QueryResult{Pairs: r.Pairs}
		if it.Spec.Kind == plan.KindTopK {
			// Interval results carry nil Values by contract.
			res.Values = r.Values
		}
		return res, Actual{Tier: tier}, true
	}
	if pairs, candidates, ok := tryRepair(b, cache, it, key); ok {
		return QueryResult{Pairs: pairs}, Actual{Tier: qcache.TierRepaired, Repaired: candidates}, true
	}
	return QueryResult{}, Actual{}, false
}

// tryRepair carries a cached interval result across Advances by delta repair.
// Eligibility: an affine-method interval entry (the repair evaluator and the
// canonical result order are the affine sweep's) over a T-measure the index
// covers (the index's row count is the completeness oracle; a D-measure
// declines before any cache or index work, because its count would fill the
// measure's value column, which costs what the cold scan repair would save),
// and a universe with no fallback pairs (the oracle must count the same
// universe the sweep scans).  The cost model arbitrates repair vs re-scan, and a
// repaired row count that disagrees with the oracle — a pair outside the
// candidate set drifted across the interval boundary without being refit —
// abandons the repair for a cold run.
func tryRepair(b Backend, cache *qcache.Cache, it Item, key qcache.Key) ([]timeseries.Pair, int, bool) {
	table := b.Table()
	if it.Spec.Kind != plan.KindInterval || it.Method != MethodAffine ||
		it.Spec.Measure.Class() == measure.DerivedClass || !table.Indexes(it.Spec.Measure) ||
		table.FallbackPairs != 0 {
		return nil, 0, false
	}
	rp, ok := cache.PlanRepair(key, b.Epoch())
	if !ok {
		return nil, 0, false
	}
	sel, err := b.Selectivity(it.Spec)
	if err != nil {
		return nil, 0, false
	}
	rows := sel.Rows
	cost := plan.DefaultCostModel()
	p := cost.Plan(it.Spec, table, &sel)
	if cost.RepairCost(len(rp.Candidates), rows, table) >= p.CostAffine {
		return nil, 0, false
	}
	sp := measure.Lookup(it.Spec.Measure)
	w, _ := blockScratchPool.Get()
	defer blockScratchPool.Put(w)
	pairs := make([]timeseries.Pair, 0, rows)
	values := make([]float64, 0, rows)
	for lo := 0; lo < len(rp.Candidates); lo += kernel.BlockPairs {
		chunk := rp.Candidates[lo:min(lo+kernel.BlockPairs, len(rp.Candidates))]
		vs, err := pairValues(b, sp, MethodAffine, chunk, w)
		if err != nil {
			return nil, 0, false
		}
		for i, v := range vs {
			if it.Spec.Interval.Contains(v) {
				pairs = append(pairs, chunk[i])
				values = append(values, v)
			}
		}
	}
	if len(pairs) != rows {
		cache.NoteRepairFallback()
		return nil, 0, false
	}
	cache.CommitRepair(key, b.Epoch(), pairs, values, len(rp.Candidates))
	return pairs, len(rp.Candidates), true
}

// cacheStore installs a cold execution's result.  Interval entries need the
// result rows' measure values (containment filtering and repair seeding read
// them).  A single engine's sweep — naive or affine, prescreened or not — has
// the exact value of every row it keeps in hand and hands them over in
// res.Values; a coordinator's merged fan-out has them captured post hoc
// through pairValues with the item's method, once per cold query (a hit
// never pays it), and an index entry stores none (see below).  Both give the
// same bits: BaseValues reads what the method's sweep reads.  Top-k entries
// store their ranking values directly.
func cacheStore(b Backend, cache *qcache.Cache, it Item, key qcache.Key, res QueryResult) {
	if it.Spec.Kind == plan.KindTopK || res.Values != nil {
		cache.Put(key, b.Epoch(), res.Pairs, res.Values)
		return
	}
	// An index entry serves exact hits only: the index decides membership by
	// its own values (ξ against τ/‖α‖ for a T-measure), which no per-pair
	// evaluator reproduces bit for bit — W_A evaluates the propagation
	// quadratic form (DESIGN.md "W_A and SCAPE values") — so filtering other
	// values could move a row on a narrower interval's boundary.  Without
	// values the containment tier passes the entry by.
	if it.Method == MethodIndex {
		cache.Put(key, b.Epoch(), res.Pairs, nil)
		return
	}
	sp := measure.Lookup(it.Spec.Measure)
	w, _ := blockScratchPool.Get()
	defer blockScratchPool.Put(w)
	values := make([]float64, len(res.Pairs))
	for lo := 0; lo < len(res.Pairs); lo += kernel.BlockPairs {
		chunk := res.Pairs[lo:min(lo+kernel.BlockPairs, len(res.Pairs))]
		vs, err := pairValues(b, sp, it.Method, chunk, w)
		// A row whose value is undefined is not storable; the returned
		// result is unaffected.
		if err != nil || slices.ContainsFunc(vs, math.IsNaN) {
			return
		}
		copy(values[lo:], vs)
	}
	cache.Put(key, b.Epoch(), res.Pairs, values)
}

// compute answers a compute (MEC) spec with its concrete method: an L-measure
// in Series and Values, the shape of an L-measure top-k, read from the
// backend's replica (per-series state is replicated), with Series the spec's
// own IDs slice; a pairwise measure as the |ψ|-by-|ψ| Matrix.
func compute(b Backend, spec plan.QuerySpec, method Method) (QueryResult, error) {
	if sp, ok := measure.Find(spec.Measure); ok && sp.Location() {
		values, err := b.Replica().locationValues(spec.Measure, spec.IDs, method)
		if err != nil {
			return QueryResult{}, err
		}
		return QueryResult{Series: spec.IDs, Values: values}, nil
	}
	matrix, err := computePairwise(b, spec.Measure, spec.IDs, method)
	return QueryResult{Matrix: matrix}, err
}

// computePairwise answers a pairwise MEC query: the |ψ|-by-|ψ| matrix in the
// order given, undefined derived values as NaN.  Each row's cells go through
// pairValues a chunk at a time — a sharded backend answers each pair from the
// shard that owns it, its pivot summary or its naive column — and a series
// with itself is the spec's declared self value on every route, read from
// the replica: the kernels' cov/√(var·var) overflows to 0 past ~1e77.
func computePairwise(b Backend, m measure.Measure, ids []timeseries.SeriesID, method Method) ([][]float64, error) {
	sp, err := pairwiseSpec(m)
	if err != nil {
		return nil, err
	}
	if method != MethodNaive && method != MethodAffine {
		return nil, fmt.Errorf("%w: %v for pairwise MEC", ErrBadMethod, method)
	}
	r := b.Replica()
	for _, id := range ids {
		if _, err := r.data.Series(id); err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(ids))
	for i := range out {
		out[i] = make([]float64, len(ids))
	}
	// Row-sharded: worker i fills out[i][j] for j >= i plus the mirrored
	// column entries out[j][i]; all written cells are distinct, and each
	// cell's value depends only on (i, j), so the matrix is identical at any
	// parallelism.
	err = par.Do(len(ids), r.par, func(i int) error {
		w, _ := blockScratchPool.Get()
		defer blockScratchPool.Put(w)
		u := ids[i]
		self, err := measure.OrNaN(r.SelfValue(m, u))
		if err != nil {
			return err
		}
		out[i][i] = self
		for lo := i + 1; lo < len(ids); lo += kernel.BlockPairs {
			row := ids[lo:min(lo+kernel.BlockPairs, len(ids))]
			pairs := w.sub[:len(row)]
			for k, v := range row {
				// A repeated id gives the zero pair: evaluated, then set to self.
				pairs[k], _ = timeseries.NewPair(u, v)
			}
			values, err := pairValues(b, sp, method, pairs, w)
			if err != nil {
				return err
			}
			for k, v := range row {
				value := values[k]
				if v == u {
					value = self
				}
				out[i][lo+k], out[lo+k][i] = value, value
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pairValues evaluates measure sp for at most kernel.BlockPairs pairs by a
// concrete sweep method in w's value buffers: the backend's base values, put
// through the replica's transform over the window moments (deriveValues),
// NaN where the measure is undefined.  The result lives in w.
func pairValues(b Backend, sp *measure.Spec, method Method, pairs []timeseries.Pair, w *blockScratch) ([]float64, error) {
	t := w.t[:len(pairs)]
	if err := b.BaseValues(sp.Base, pairs, method, t); err != nil {
		return nil, err
	}
	return b.Replica().deriveValues(sp, pairs, t, w.v[:len(pairs)], w)
}
