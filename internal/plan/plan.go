// Package plan implements the cost-based query planner that sits between the
// public query API and the execution engine.
//
// The paper's evaluation (Section 6) shows that no single execution method
// wins everywhere: the naive method (W_N) is exact but touches every raw
// sample, the affine method (W_A) answers from closed-form propagations in
// O(1) per pair but degrades to naive scans for pairs without a relationship,
// and the SCAPE index answers interval queries with one search per pivot
// node.  The planner makes the choice per query: a QuerySpec is the logical query,
// TableStats describes the epoch it runs against — which measures its index
// covers among them — and CostModel.Plan prices every applicable method and
// picks the cheapest.  Every method emits the same rows, so the choice needs
// no result-size estimate; Explain asks the index for its count
// (scape.Selectivity) only to report it.
//
// The logical query language has three kinds: interval queries (the unified
// MET/MER predicate "value ∈ I"), top-k (MEK) queries, and compute (MEC)
// queries.  MET and MER are the half-bounded and bounded instances of the
// interval kind, built with Interval, not kinds of their own.
//
// Everything in this package is deterministic in its inputs: the cost model
// never consults the clock, the worker count or any sampled state, so two
// engines with identical epochs produce identical Plans at any parallelism —
// the PR-2 determinism contract extends to plan choices.
package plan

import (
	"fmt"
	"time"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/scape"
	"affinity/internal/timeseries"
)

// Method selects how a query is executed.
type Method int

const (
	// MethodNaive computes measures from scratch (the paper's W_N).
	MethodNaive Method = iota
	// MethodAffine computes measures through affine relationships (W_A).
	MethodAffine
	// MethodIndex answers interval and top-k queries from the SCAPE index.
	MethodIndex
	// MethodAuto routes each query through the cost model, which picks the
	// cheapest applicable concrete method for the epoch's table statistics.
	MethodAuto
)

// String names the method the way the paper does.
func (m Method) String() string {
	switch m {
	case MethodNaive:
		return "WN"
	case MethodAffine:
		return "WA"
	case MethodIndex:
		return "SCAPE"
	case MethodAuto:
		return "AUTO"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Concrete reports whether m names an executable method (everything but
// MethodAuto).
func (m Method) Concrete() bool {
	return m == MethodNaive || m == MethodAffine || m == MethodIndex
}

// Kind is the logical query type.
type Kind int

const (
	// KindInterval is the unified interval query: the MET and MER queries of
	// Section 2.2 are its half-bounded and bounded instances.
	KindInterval Kind = iota
	// KindCompute is a measure computation (MEC) query.
	KindCompute
	// KindTopK is a top-k (MEK) query: the k pairs (or series) with the most
	// extreme measure values.
	KindTopK
)

// String names the query kind; out-of-range values render as a stable
// "unknown(N)" form.
func (k Kind) String() string {
	switch k {
	case KindInterval:
		return "INTERVAL"
	case KindCompute:
		return "MEC"
	case KindTopK:
		return "MEK"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// QuerySpec is the logical representation of one query: what is asked,
// independent of how it will be executed.
type QuerySpec struct {
	Kind    Kind
	Measure measure.Measure
	// Interval parameterizes an interval (MET/MER) query.
	Interval interval.Interval
	// K and Largest parameterize a top-k query: the k greatest (Largest) or
	// smallest measure values.
	K       int
	Largest bool
	// NumTargets is |ψ| of a compute query (the number of requested series),
	// and IDs is ψ itself, in the order the answer is returned: callers that
	// execute a compute spec set it after Compute, which prices by the count.
	NumTargets int
	IDs        []timeseries.SeriesID
}

// Interval builds the spec of an interval query: entries whose measure value
// lies in iv.
func Interval(m measure.Measure, iv interval.Interval) QuerySpec {
	return QuerySpec{Kind: KindInterval, Measure: m, Interval: iv}
}

// TopK builds the spec of a top-k (MEK) query: the k entries with the
// greatest (largest) or smallest measure values.
func TopK(m measure.Measure, k int, largest bool) QuerySpec {
	return QuerySpec{Kind: KindTopK, Measure: m, K: k, Largest: largest}
}

// Compute builds the spec of a MEC query over numTargets series.
func Compute(m measure.Measure, numTargets int) QuerySpec {
	return QuerySpec{Kind: KindCompute, Measure: m, NumTargets: numTargets}
}

// PairQuery converts an interval spec into the index's query form, used to
// ask the index for its row count.
func (s QuerySpec) PairQuery() scape.PairQuery {
	return scape.PairQuery{Measure: s.Measure, Interval: s.Interval}
}

// String renders the spec the way the paper writes queries: half-bounded
// interval predicates as MET, bounded ones as MER.
func (s QuerySpec) String() string {
	switch s.Kind {
	case KindInterval:
		if s.Interval.Bounded() {
			return fmt.Sprintf("MER %v in %v", s.Measure, s.Interval)
		}
		return fmt.Sprintf("MET %v %v", s.Measure, s.Interval)
	case KindTopK:
		dir := "largest"
		if !s.Largest {
			dir = "smallest"
		}
		return fmt.Sprintf("MEK %v top-%d %s", s.Measure, s.K, dir)
	default:
		return fmt.Sprintf("MEC %v over %d series", s.Measure, s.NumTargets)
	}
}

// Plan is the planner's decision for one query: the chosen method, the
// per-method cost estimates that drove the choice, and — after execution
// through Engine.Explain — the observed actuals.
type Plan struct {
	Spec   QuerySpec
	Method Method

	// EstimatedRows is the expected result size: the index's exact count of
	// an interval query's rows when the plan was asked for it (Explain,
	// View.Plan), k for top-k, a heuristic otherwise.  No method choice
	// depends on it.
	EstimatedRows int
	// Candidates is the expected number of entries a best-first index top-k
	// examines (zero for other queries).
	Candidates int
	// SelectivityExact reports whether EstimatedRows is the index's count
	// rather than a heuristic.
	SelectivityExact bool

	// EstimatedCost is the cost of the chosen method in the model's abstract
	// units; CostNaive/CostAffine/CostIndex are the per-method estimates
	// (+Inf for methods not applicable to this query), each including the
	// emit term for EstimatedRows that all methods share.  CostSketch is the
	// price of the filter-and-refine prescreen the naive route executes
	// through on sketch-enabled epochs (+Inf when inapplicable); when finite
	// it IS the naive route's price, so CostNaive equals it.
	EstimatedCost float64
	CostNaive     float64
	CostAffine    float64
	CostIndex     float64
	CostSketch    float64

	// Actuals, filled by the executor when the query ran through Explain.
	ActualRows int
	Duration   time.Duration
	// CacheTier names the result-cache tier that served the query ("exact",
	// "contained" or "repaired"; empty when the query executed in full), so a
	// repeated Explain reports what actually happened instead of pretending a
	// cold run.  CacheRepairedPairs is the number of candidate pairs the delta
	// repair re-evaluated (zero outside the repaired tier).
	CacheTier          string
	CacheRepairedPairs int
	// SketchedPairs is the number of pairs a naive sweep's bound providers —
	// the coefficient sketches where the engine keeps them, then the slid
	// pair moments — prescreened for this query, and SketchRefinedPairs the
	// number that still reached the exact kernels: the pairs no bound could
	// decide and, on a cache-enabled engine, the rows the query kept (the
	// cache stores their values).  Zero when the query did not execute as a
	// naive sweep of a boundable measure, or read the epoch's naive
	// covariance column.
	SketchedPairs      int
	SketchRefinedPairs int
	// BaseValues reports where a sweep took its base T-measure values from:
	// "filled" when this affine query evaluated the epoch's base column,
	// "reused" when an earlier affine sweep of the same base at this epoch
	// already had, "fit" when this naive query read the covariances the
	// epoch's full fit reduced.  Empty when the sweep evaluated its base
	// values or none ran (the index, a cache hit).  An L-measure query that
	// read the epoch's location column — on the index, or to count an
	// interval's rows — reports "filled" when it filled the column and
	// "reused" when it found it filled.
	BaseValues string
}

// WithMethod returns the plan re-priced for a caller-fixed concrete method:
// EstimatedCost becomes that method's cost column, and the other columns stay
// for comparison.
func (p Plan) WithMethod(m Method) Plan {
	p.Method = m
	switch m {
	case MethodNaive:
		p.EstimatedCost = p.CostNaive
	case MethodAffine:
		p.EstimatedCost = p.CostAffine
	case MethodIndex:
		p.EstimatedCost = p.CostIndex
	}
	return p
}

// String renders the plan for diagnostics and EXPLAIN-style output.
func (p Plan) String() string {
	s := fmt.Sprintf("%v → %v (est %d rows, cost %.3g; WN %.3g, WA %.3g, SCAPE %.3g)",
		p.Spec, p.Method, p.EstimatedRows, p.EstimatedCost,
		p.CostNaive, p.CostAffine, p.CostIndex)
	if p.CacheTier != "" {
		s += fmt.Sprintf(" [cache %s", p.CacheTier)
		if p.CacheRepairedPairs > 0 {
			s += fmt.Sprintf(", %d pairs repaired", p.CacheRepairedPairs)
		}
		s += "]"
	}
	if p.SketchedPairs > 0 {
		s += fmt.Sprintf(" [sketch %d pairs, %d refined]", p.SketchedPairs, p.SketchRefinedPairs)
	}
	if p.BaseValues != "" {
		s += fmt.Sprintf(" [base values %s]", p.BaseValues)
	}
	return s
}
