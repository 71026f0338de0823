package core

import (
	"fmt"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

// QueryResult is the answer to one query spec.  An interval (MET/MER) or
// top-k (MEK) query returns series identifiers for L-measures and sequence
// pairs for T- and D-measures; for top-k Values aligns with Series or Pairs
// and carries the measure value that ranked each entry, best first, and
// interval queries leave it nil.  A compute (MEC) query over an L-measure
// returns the requested series in Series (the spec's IDs slice itself) with
// their values aligned in Values; over a T- or D-measure it returns Matrix,
// the symmetric |ψ|-by-|ψ| matrix of pairwise values in the order requested,
// NaN where the measure is undefined.
type QueryResult struct {
	Series []timeseries.SeriesID
	Pairs  []timeseries.Pair
	Values []float64
	Matrix [][]float64
}

// Size returns the number of entries in the result set: rows of a matrix.
func (r QueryResult) Size() int { return len(r.Series) + len(r.Pairs) + len(r.Matrix) }

// The public query methods pin the current epoch once and answer the whole
// query from it, so they are safe to call concurrently with Append/Advance: a
// query started before an epoch swap keeps serving the old epoch's window,
// relationships and index, and no Advance recycles that epoch's memory before
// the query returns.
//
// Each is sugar over the shared pipeline (executor.go): a single query is a
// batch of one, so single and batched queries share one validation, planning,
// caching and scan implementation — and fail with the same typed errors.

// Interval answers the unified interval query: entries whose measure value
// lies in iv, computed with the selected method.  MET and MER queries are its
// half-bounded and bounded instances.
func (e *Engine) Interval(m measure.Measure, iv interval.Interval, method Method) (QueryResult, error) {
	return e.one(plan.Interval(m, iv), method)
}

// TopK answers a top-k (MEK) query: the k entries — series for L-measures,
// sequence pairs for T- and D-measures — with the greatest (largest) or
// smallest measure value, best first, ties broken by series/pair identity.
// The result's Values align with Series or Pairs.  MethodIndex runs the SCAPE
// best-first traversal, the sweep methods ride the shared multi-predicate
// pass with a bounded result heap, and MethodAuto lets the planner choose —
// non-indexable measures (Jaccard) price the index at +Inf and fall back to
// the heap sweep through the same capability flags interval queries use.
func (e *Engine) TopK(m measure.Measure, k int, largest bool, method Method) (QueryResult, error) {
	return e.one(plan.TopK(m, k, largest), method)
}

// Explain plans an interval, top-k or compute query, executes it, and returns
// the result together with the plan: the per-method cost estimates, the
// index's row count of an interval query (which no choice depends on), and
// the observed actuals.  With
// MethodAuto the plan's method is the planner's choice; with a concrete
// method the plan prices that method (the cost columns still show the
// alternatives).
func (e *Engine) Explain(spec plan.QuerySpec, method Method) (QueryResult, plan.Plan, error) {
	st := e.acquire()
	defer e.release(st)
	out, plans, err := Run(st, []plan.QuerySpec{spec}, method, true)
	if err != nil {
		return QueryResult{}, plan.Plan{}, err
	}
	return out[0], plans[0], nil
}

// ComputeLocation answers a MEC query for an L-measure over ids: a compute
// spec asked as a batch of one, of which it returns the Values.
func (e *Engine) ComputeLocation(m measure.Measure, ids []timeseries.SeriesID, method Method) ([]float64, error) {
	if m.Pairwise() {
		return nil, fmt.Errorf("core: %v is not an L-measure: %w", m, measure.ErrUnknownMeasure)
	}
	res, err := e.one(ComputeSpec(m, ids), method)
	return res.Values, err
}

// ComputePairwise answers a MEC query for a T- or D-measure over ids: a
// compute spec asked as a batch of one, of which it returns the Matrix.
func (e *Engine) ComputePairwise(m measure.Measure, ids []timeseries.SeriesID, method Method) ([][]float64, error) {
	if !m.Pairwise() {
		return nil, fmt.Errorf("core: %v is not a pairwise measure: %w", m, measure.ErrUnknownMeasure)
	}
	res, err := e.one(ComputeSpec(m, ids), method)
	return res.Matrix, err
}

// ComputeSpec is the compute (MEC) spec of measure m over the series ids.
func ComputeSpec(m measure.Measure, ids []timeseries.SeriesID) plan.QuerySpec {
	spec := plan.Compute(m, len(ids))
	spec.IDs = ids
	return spec
}

// one answers a single spec against the current epoch, pinned for the call.
func (e *Engine) one(spec plan.QuerySpec, method Method) (QueryResult, error) {
	st := e.acquire()
	defer e.release(st)
	return runOne(st, spec, method)
}

// pairwiseSpec resolves a pairwise measure to its spec with the shared typed
// error.
func pairwiseSpec(m measure.Measure) (*measure.Spec, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("core: %v is not a pairwise measure: %w", m, measure.ErrUnknownMeasure)
	}
	return sp, nil
}

// BaseValues writes the base T-measure values of canonical pairs into t by a
// concrete sweep method (Backend): naive from the epoch's naive column where
// it has one (naiveColumn) and the kernels otherwise, affine by propagating
// each pair's relationship through its pivot's summary — the base column's
// operands, so its bits.  Pairs without a slot take the kernels' values.
func (e *engineState) BaseValues(base measure.Measure, pairs []timeseries.Pair, method Method, t []float64) error {
	switch method {
	case MethodNaive:
		col := e.naiveColumn(base)
		if col == nil {
			return e.fillBase(base, pairs, t)
		}
		return e.slotValues(base, pairs, t, func(slot int) float64 { return col[e.columnPos(int32(slot))] })
	case MethodAffine:
		sp, layout := measure.Lookup(base), e.rel.Layout()
		return e.slotValues(base, pairs, t, func(slot int) float64 {
			return e.rel.At(slot).Transform.PropagateMoment(sp.Moment(e.summaries[layout.PivotOf(slot)]))
		})
	default:
		return fmt.Errorf("%w: %v for base values", ErrBadMethod, method)
	}
}

// SelfValue returns the diagonal entry of a pairwise MEC response: the
// measure of a series with itself, declared per spec over the window's
// memoised per-series moments (one object, so identical on every shard and
// to W_N's diagonal).
func (e *engineState) SelfValue(m measure.Measure, id timeseries.SeriesID) (float64, error) {
	if int(id) < 0 || int(id) >= len(e.seriesMoments.Variance) {
		return 0, fmt.Errorf("%w: %d", timeseries.ErrInvalidSeries, id)
	}
	sp, err := pairwiseSpec(m)
	if err != nil {
		return 0, err
	}
	return sp.SelfValue(e.seriesMoments.Stat(id))
}
