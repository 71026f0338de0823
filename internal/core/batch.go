package core

import (
	"fmt"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/timeseries"
)

// This file is the single engine's cold execution (Backend.Execute): a batch
// of resolved items answered against one epoch with as much shared work as
// the methods allow:
//
//   - shared scans: sweep-method (naive/affine) pairwise queries on the same
//     (base T-measure, method) share one pass over the sequence pairs — each
//     base value that is needed at all is evaluated once, for every interval
//     predicate and every top-k heap that rides it (sketchsweep.go);
//     index-method interval queries share the pivot-node traversal
//     (scape.PairBatch visits every pivot node once), while index top-k
//     queries each run their own best-first traversal;
//   - parallelism: the shared sweeps shard across the engine's worker pool.
//
// Results are guaranteed — and pinned by the operation lattice
// (lattice_test.go) — to equal the corresponding sequence of single-query
// calls, element for element, in the same order.

// IntervalQuery describes one interval (MET/MER) query of a batch: entries
// whose measure value lies in Interval.
type IntervalQuery struct {
	Measure  measure.Measure
	Interval interval.Interval
}

// IntervalBatch answers a batch of interval queries with the selected method.
// out[i] corresponds to qs[i] and is identical to Interval(qs[i]...).  It is
// Batch over interval specs, kept for the benchmark's drivers.
func (e *Engine) IntervalBatch(qs []IntervalQuery, method Method) ([]QueryResult, error) {
	specs := make([]plan.QuerySpec, len(qs))
	for i, q := range qs {
		specs[i] = plan.Interval(q.Measure, q.Interval)
	}
	return e.Batch(specs, method)
}

// Batch answers a mixed list of interval, top-k and compute specs against one
// pinned epoch.  out[i] is identical to the matching single query.
func (e *Engine) Batch(specs []plan.QuerySpec, method Method) ([]QueryResult, error) {
	st := e.acquire()
	defer e.release(st)
	out, _, err := Run(st, specs, method, false)
	return out, err
}

// Execute answers resolved items cold: location queries run directly from the
// per-series values, index-method interval queries share one pivot-node
// traversal, index top-k queries run their best-first traversals, and the
// sweep-method pairwise queries — naive and
// affine, interval and top-k alike — go through the one filter-and-refine
// stage (sketchsweep.go), with results scattered back into request order.
func (e *engineState) Execute(items []Item, actuals []Actual) ([]QueryResult, error) {
	out := make([]QueryResult, len(items))
	var indexQueries []scape.PairQuery
	var indexIdx []int
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
		default:
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
		if err := e.sweep(items, sweepIdx, out, actuals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// locationQuery answers one L-measure interval or top-k query with its
// resolved method by filtering / ranking the per-series values.
func (e *engineState) locationQuery(it Item) (QueryResult, error) {
	spec := it.Spec
	ids := e.data.IDs()
	values, err := e.seriesValues(spec.Measure, it.Method)
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

// locationRows counts the series an L-measure interval query answers with
// method: the rows of locationQuery's result, without building it.
func (e *engineState) locationRows(m measure.Measure, iv interval.Interval, method Method) (int, error) {
	values, err := e.seriesValues(m, method)
	if err != nil {
		return 0, err
	}
	rows := 0
	for _, v := range values {
		if iv.Contains(v) {
			rows++
		}
	}
	return rows, nil
}

// seriesValues returns an L-measure's value of every series of the window as
// a resolved method reads it.  The index holds nothing per series: an engine
// that has one answers the index method with the affine method's calibrated
// values.
func (e *engineState) seriesValues(m measure.Measure, method Method) ([]float64, error) {
	if method == MethodIndex {
		if e.index == nil {
			return nil, ErrNoIndex
		}
		method = MethodAffine
	}
	return e.locationValues(m, e.data.IDs(), method)
}

// locationValues returns an L-measure's value for each requested series:
// exact, read off the window's memos (naive, DataMatrix.Locations: one hold
// of the sorted columns' read lock for the whole list), or
// estimated through the series' calibration (affine).
func (e *engineState) locationValues(m measure.Measure, ids []timeseries.SeriesID, method Method) ([]float64, error) {
	switch method {
	case MethodNaive:
		out := make([]float64, len(ids))
		if err := e.data.Locations(m, ids, out); err != nil {
			return nil, err
		}
		return out, nil
	case MethodAffine:
		return e.calibratedLocations(m, ids)
	default:
		return nil, fmt.Errorf("%w: %v for an L-measure", ErrBadMethod, method)
	}
}
