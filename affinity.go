// Package affinity is the public API of the AFFINITY framework for
// efficiently querying statistical measures on time-series data, a
// reproduction of:
//
//	Saket Sathe and Karl Aberer.
//	"AFFINITY: Efficiently Querying Statistical Measures on Time-Series Data."
//	ICDE 2013.
//
// AFFINITY answers four kinds of statistical queries over a collection of n
// time series with m samples each:
//
//   - measure computation (MEC): the value of a measure for a requested set
//     of series (a mean vector, a covariance or correlation matrix, ...);
//   - measure threshold (MET): all series or series pairs whose measure is
//     above or below a threshold τ;
//   - measure range (MER): all series or series pairs whose measure lies in
//     [τl, τu];
//   - top-k (MEK): the k series or series pairs with the most extreme
//     measure values — the k most-correlated stock pairs, the k nearest
//     sensor pairs under Euclidean distance.
//
// MET and MER are two faces of one predicate — "value lies in an interval" —
// and the whole query stack consumes that single Interval type: a MET query
// is Interval with GreaterThan or LessThan (AtLeast / AtMost for the closed
// forms), a MER query is Interval with Between.  Top-k runs as a best-first
// index traversal that adaptively tightens the interval [v_k, best].  The
// two row-returning questions each have one door — Interval and TopK — and
// Batch answers any mixed list of QuerySpecs (IntervalSpec, TopKSpec and the
// MEC's ComputeSpec) against one epoch; Explain answers one with its plan.
//
// Instead of computing a pairwise measure for all n(n−1)/2 pairs from the
// raw data, AFFINITY clusters the series (AFCLST), computes one affine
// relationship per pair against a nearly linear number of pivot pairs
// (SYMEX+), and transfers measures through those relationships in closed
// form.  The SCAPE index orders the affine relationships by their scalar
// projection so that threshold and range queries over every supported
// measure are answered from the same index.
//
// # Quick start
//
//	data, _ := affinity.GenerateStockData(affinity.StockDataConfig{NumSeries: 100, NumSamples: 390})
//	eng, _ := affinity.New(data, affinity.Options{Clusters: 6})
//
//	// All pairs of stocks whose intra-day correlation exceeds 0.9:
//	res, _ := eng.Interval(affinity.Correlation, affinity.GreaterThan(0.9), affinity.Index)
//	for _, pair := range res.Pairs {
//		fmt.Println(data.Name(pair.U), data.Name(pair.V))
//	}
//
//	// The ten most correlated pairs, best first (values aligned):
//	top, _ := eng.TopK(affinity.Correlation, 10, true, affinity.Auto)
//	for i, pair := range top.Pairs {
//		fmt.Println(data.Name(pair.U), data.Name(pair.V), top.Values[i])
//	}
//
//	// The correlation matrix of the first five stocks (MEC), and the three
//	// most correlated pairs, answered from one epoch:
//	out, _ := eng.Batch([]affinity.QuerySpec{
//		affinity.ComputeSpec(affinity.Correlation, data.IDs()[:5]),
//		affinity.TopKSpec(affinity.Correlation, 3, true),
//	}, affinity.Affine)
//	fmt.Println(out[0].Matrix, out[1].Pairs)
//
// The three concrete execution methods mirror the paper's evaluation: Naive
// recomputes from raw data (W_N), Affine uses the affine relationships (W_A),
// and Index uses the SCAPE index.  For T- and D-measures Affine and Index
// answer from the same relationships and return the same rows (their values
// agree to about 1e-9 relative).  For L-measures they use two different
// estimators and may return different rows: Affine reads each series' 1-D
// calibration against its cluster centre, Index propagates the location
// through one affine relationship in which the series is the non-common
// member (DESIGN.md, "Two L-measure estimators").  Both approximate Naive
// with the small errors reported in EXPERIMENTS.md.  A fourth method, Auto,
// routes each query through a cost-based planner that estimates the query's
// selectivity from the index and picks the cheapest applicable method;
// Explain exposes the plan.
//
// # Streaming
//
// The engine can run as a sliding window over a live stream: Append buffers
// newly arrived ticks and Advance slides the window forward, incrementally
// re-fitting only the affine relationships whose drift exceeds
// Options.DriftBound and rebuilding the SCAPE index for the new epoch.
// Queries may be issued from any number of goroutines concurrently with
// Append/Advance; they are never blocked by an update and always observe a
// complete, consistent epoch.
//
//	eng, _ := affinity.New(data, affinity.Options{Clusters: 6})
//	for tick := range feed {       // one new sample per series
//		eng.Append(tick)
//	}
//	eng.Advance()                  // slide the window, refit, reindex
package affinity

import (
	"io"

	"affinity/internal/core"
	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/timeseries"
)

// Dataset is a collection of equally long time series (the paper's data
// matrix S).
type Dataset = timeseries.DataMatrix

// SeriesID identifies a single series within a Dataset (zero-based).
type SeriesID = timeseries.SeriesID

// Pair is an unordered pair of series identifiers (a sequence pair).
type Pair = timeseries.Pair

// Measure identifies a statistical measure.
type Measure = measure.Measure

// Supported measures, grouped the way the paper groups them.
const (
	// L-measures (location).
	Mean   = measure.Mean
	Median = measure.Median
	Mode   = measure.Mode

	// T-measures (dispersion).
	Covariance = measure.Covariance
	DotProduct = measure.DotProduct

	// D-measures (derived).
	Correlation  = measure.Correlation
	Cosine       = measure.Cosine
	Jaccard      = measure.Jaccard
	Dice         = measure.Dice
	HarmonicMean = measure.HarmonicMean

	// Distance D-measures: monotone-decreasing transforms of the dot
	// product, registered through the declarative measure algebra
	// (internal/measure) — interval queries on them exercise the SCAPE
	// index's decreasing-transform pruning path.
	EuclideanDistance     = measure.EuclideanDistance
	MeanSquaredDifference = measure.MeanSquaredDifference
	AngularDistance       = measure.AngularDistance
)

// MeasureInfo describes one registered measure: its parseable name, class
// (L/T/D), base T-measure, one-line formula and whether the SCAPE index can
// serve it.  The list is the registry itself — documentation and CLI help
// enumerate it instead of hard-coding measure tables.
type MeasureInfo struct {
	Measure   Measure
	Name      string
	Class     string
	Base      Measure
	Doc       string
	Indexable bool
}

// Measures returns every registered measure in registration order.
func Measures() []MeasureInfo {
	specs := measure.Specs()
	out := make([]MeasureInfo, len(specs))
	for i, sp := range specs {
		out[i] = MeasureInfo{
			Measure:   sp.ID,
			Name:      sp.Name,
			Class:     sp.Class.String(),
			Base:      sp.Base,
			Doc:       sp.Doc,
			Indexable: sp.Indexable,
		}
	}
	return out
}

// ParseMeasure resolves a measure name (as printed by Measure.String and
// listed in Measures) in one registry lookup.
func ParseMeasure(name string) (Measure, error) { return measure.Parse(name) }

// Method selects how queries are executed.
type Method = core.Method

// Execution methods.
const (
	// Naive computes measures from the raw series for every query (W_N).
	Naive = core.MethodNaive
	// Affine computes measures through affine relationships (W_A).
	Affine = core.MethodAffine
	// Index answers threshold and range queries from the SCAPE index.
	Index = core.MethodIndex
	// Auto lets the cost-based planner pick the cheapest applicable method
	// per query, from the engine's table statistics.  No method wins everywhere (Section 6); Auto is the
	// right default when the workload mixes selectivities and measures.
	Auto = core.MethodAuto
)

// Interval is the canonical value predicate of the query stack: a set of
// measure values between two endpoints, each independently open, closed or
// unbounded.  MET and MER queries are its half-bounded and bounded instances;
// top-k queries adaptively discover the interval [v_k, best].  Build one with
// the constructors below or ParseInterval.
type Interval = interval.Interval

// IntervalBound is one endpoint of an Interval (see ClosedBound, OpenBound
// and UnboundedEnd for direct construction of asymmetric intervals).
type IntervalBound = interval.Bound

// GreaterThan returns the predicate (tau, +∞) — the MET "above" query.
func GreaterThan(tau float64) Interval { return interval.GreaterThan(tau) }

// AtLeast returns the predicate [tau, +∞).
func AtLeast(tau float64) Interval { return interval.AtLeast(tau) }

// LessThan returns the predicate (−∞, tau) — the MET "below" query.
func LessThan(tau float64) Interval { return interval.LessThan(tau) }

// AtMost returns the predicate (−∞, tau].
func AtMost(tau float64) Interval { return interval.AtMost(tau) }

// Between returns the closed predicate [lo, hi] — the MER query.
func Between(lo, hi float64) Interval { return interval.Between(lo, hi) }

// AllValues returns the unbounded predicate (−∞, +∞).
func AllValues() Interval { return interval.All() }

// NewInterval builds an interval from two explicit bounds.
func NewInterval(lo, hi IntervalBound) Interval { return interval.New(lo, hi) }

// ClosedBound, OpenBound and UnboundedEnd construct interval endpoints.
func ClosedBound(v float64) IntervalBound { return interval.Closed(v) }
func OpenBound(v float64) IntervalBound   { return interval.Open(v) }
func UnboundedEnd() IntervalBound         { return interval.Unbounded() }

// ParseInterval reads an interval in the unified query grammar:
//
//   - | > τ | >= τ | < τ | <= τ | [lo, hi] | (lo, hi] | [lo, hi) | (lo, hi)
func ParseInterval(s string) (Interval, error) { return interval.Parse(s) }

// IntervalGrammar describes the forms ParseInterval accepts (CLI help).
func IntervalGrammar() string { return interval.Grammar() }

// QuerySpec is the logical form of one interval (MET/MER), top-k (MEK) or
// measure computation (MEC) query, read by Explain and Batch.  Build one with
// IntervalSpec, TopKSpec or ComputeSpec.
type QuerySpec = plan.QuerySpec

// QueryPlan is the planner's decision for one query: chosen method,
// per-method cost estimates, estimated and actual result sizes.
type QueryPlan = plan.Plan

// IntervalSpec builds the logical spec of an interval (MET/MER) query.
func IntervalSpec(m Measure, iv Interval) QuerySpec {
	return plan.Interval(m, iv)
}

// TopKSpec builds the logical spec of a top-k (MEK) query.
func TopKSpec(m Measure, k int, largest bool) QuerySpec {
	return plan.TopK(m, k, largest)
}

// ComputeSpec builds the logical spec of a measure computation (MEC) query
// over the series ids, answered in their order: an L-measure's values (mean,
// median, mode) in Result.Series and Result.Values, a T- or D-measure's
// pairwise matrix in Result.Matrix.  The Index method does not answer it.
func ComputeSpec(m Measure, ids []SeriesID) QuerySpec {
	return core.ComputeSpec(m, ids)
}

// Typed query errors, shared by the single and batched entry points.
var (
	// ErrBadMethod reports an unsupported method for the query.
	ErrBadMethod = core.ErrBadMethod
	// ErrNoIndex reports an index query against an engine built with
	// SkipIndex.
	ErrNoIndex = core.ErrNoIndex
	// ErrMeasureNotIndexed reports an index query on a measure the index
	// cannot serve (e.g. the Jaccard coefficient).
	ErrMeasureNotIndexed = core.ErrMeasureNotIndexed
	// ErrEmptyRange reports an interval no value can satisfy (e.g. lo > hi).
	ErrEmptyRange = core.ErrEmptyRange
	// ErrBadTopK reports a top-k query with k < 1.
	ErrBadTopK = core.ErrBadTopK
)

// Result is the answer to one query.  An interval (MET/MER) or top-k query
// returns Series for L-measures and Pairs for T- and D-measures; for top-k
// Values aligns with Series or Pairs and carries the measure value that
// ranked each entry, best first.  A MEC query (ComputeSpec) over an
// L-measure returns the requested Series with their Values aligned; over a T-
// or D-measure it returns Matrix, symmetric and in the order requested, with
// NaN where the derived measure is undefined (for example the correlation
// against a constant series).
type Result = core.QueryResult

// BuildInfo describes what Engine construction produced.
type BuildInfo = core.BuildInfo

// NewDataset builds a dataset from unnamed series of equal length.
func NewDataset(series [][]float64) (*Dataset, error) {
	return timeseries.NewDataMatrix(series)
}

// NewNamedDataset builds a dataset from named series of equal length.
func NewNamedDataset(names []string, series [][]float64) (*Dataset, error) {
	return timeseries.NewNamedDataMatrix(names, series)
}

// ReadCSV parses a dataset from column-per-series CSV (an optional header row
// provides series names).
func ReadCSV(r io.Reader) (*Dataset, error) {
	return timeseries.ReadCSV(r)
}

// SensorDataConfig configures the synthetic sensor dataset generator (the
// stand-in for the paper's sensor-data; see DESIGN.md for the substitution).
type SensorDataConfig = dataset.SensorConfig

// StockDataConfig configures the synthetic stock dataset generator (the
// stand-in for the paper's stock-data).
type StockDataConfig = dataset.StockConfig

// GenerateSensorData synthesizes a sensor-data style dataset: groups of
// strongly correlated diurnal series with measurement noise.
func GenerateSensorData(cfg SensorDataConfig) (*Dataset, error) {
	return dataset.GenerateSensor(cfg)
}

// GenerateStockData synthesizes a stock-data style dataset: factor-driven
// intra-day price series with sector co-movement.
func GenerateStockData(cfg StockDataConfig) (*Dataset, error) {
	return dataset.GenerateStock(cfg)
}

// StreamStats reports the engine's cumulative incremental-maintenance
// counters: index delta-updates vs rebuilds, sequence-store mutations,
// scratch-pool behavior, the phase timings of the most recent Advance, the
// result cache's hit/miss/repair counters, the base-column fill/reuse
// counters and the pair-moment column's fill/sweep/refined-pair counters.
type StreamStats = core.StreamStats

// AdvanceInfo describes one streaming epoch transition.
type AdvanceInfo = core.AdvanceInfo

// Options configures Engine construction.
type Options struct {
	// Clusters is the number of affine clusters k for AFCLST (default 6;
	// AFCLST runs at most 10 rounds and stops once a round moves at most 10
	// series).
	Clusters int
	// Seed makes clustering (and therefore the whole build) reproducible.
	Seed int64
	// SkipIndex skips the SCAPE index when only MEC queries are needed.
	SkipIndex bool
	// Parallelism is the number of worker goroutines used across the whole
	// hot path: clustering, relationship fitting, pivot summaries, SCAPE
	// index construction, Advance maintenance and sharded/batched query
	// scans (0 or 1 = sequential).  Every parallel stage merges its shards
	// in a deterministic order, so results are identical at any level, and
	// the calling goroutine is always the first worker, so a stage too small
	// to share costs about what it costs sequentially: set it to the number
	// of processors the engine may use.
	Parallelism int
	// DriftBound controls selective relationship refitting on the streaming
	// update path (Append/Advance).  The engine treats its dataset as a
	// sliding window over an unbounded stream: Append buffers newly arrived
	// ticks (one sample per series) and Advance folds them into a new epoch,
	// sliding the window forward while keeping its length fixed; queries are
	// safe to issue concurrently and serve the epoch current when they
	// started.  After a slide a relationship is re-fitted only when the
	// relative discrepancy between its transform-predicted variance of the
	// non-common series and the series' true windowed variance exceeds the
	// bound.  Zero (the default) refits every relationship on every Advance,
	// which keeps every answer bit-identical to a cold rebuild's on the slid
	// window (with the frozen clustering); a small positive value (e.g.
	// 0.05) skips refits on quiet streams at the cost of a bounded extra
	// approximation error.  NaN is rejected.  Every 64th epoch re-reduces
	// from the raw window what the others slide — the naive sweeps'
	// pair-moment column — bounding its floating-point drift; per-series
	// statistics are never slid.
	DriftBound float64
	// Cache turns on the epoch-aware semantic result cache (off by default).
	// It sits behind every interval (MET/MER) and top-k query path and serves
	// repeated queries from three reuse tiers: an exact hit returns the stored
	// result with zero allocations; a query semantically contained in a cached
	// one (a narrower interval, or top-k with smaller k in the same direction)
	// is answered by filtering the cached rows; and across an Advance a cached
	// interval result is delta-repaired — only the rows plus the drift-stale
	// pairs of the last 8 epochs are re-evaluated, verified complete against
	// the index's exact selectivity count.  Entries are evicted in LRU order
	// past 32 MiB of estimated footprint.  Every cached answer is
	// byte-identical to a cold execution of the same query, so enabling the
	// cache changes latency only.  Explain reports the serving tier on
	// QueryPlan.CacheTier, and StreamStats carries the hit/miss/repair
	// counters.
	Cache bool
}

// Engine is a built AFFINITY instance over one dataset.
type Engine struct {
	inner *core.Engine
}

// config translates the public options into the engine configuration.
func (opts Options) config() core.Config {
	return core.Config{
		Clusters:    opts.Clusters,
		Seed:        opts.Seed,
		SkipIndex:   opts.SkipIndex,
		Parallelism: opts.Parallelism,
		Stream:      core.StreamConfig{DriftBound: opts.DriftBound},
		Cache:       qcache.Options{Enabled: opts.Cache},
	}
}

// New builds an AFFINITY engine: it clusters the series with AFCLST, computes
// affine relationships with SYMEX+, precomputes the pivot summaries and
// builds the SCAPE index.
func New(d *Dataset, opts Options) (*Engine, error) {
	eng, err := core.Build(d, opts.config())
	if err != nil {
		return nil, err
	}
	return &Engine{inner: eng}, nil
}

// Info returns build statistics: the number of pivot pairs and affine
// relationships, cache counters and per-stage durations.
func (e *Engine) Info() BuildInfo { return e.inner.Info() }

// Data returns the engine's dataset.
func (e *Engine) Data() *Dataset { return e.inner.Data() }

// Interval answers the unified interval query: all series (for L-measures)
// or sequence pairs (for T- and D-measures) whose measure value lies in iv.
// A MET query passes GreaterThan(τ) or LessThan(τ), a MER query Between(lo,
// hi); AtLeast, AtMost, NewInterval and ParseInterval build the other forms.
func (e *Engine) Interval(m Measure, iv Interval, method Method) (Result, error) {
	return e.inner.Interval(m, iv, method)
}

// TopK answers a top-k (MEK) query: the k series or sequence pairs with the
// greatest (largest = true) or smallest measure value, best first with ties
// broken by series/pair identity; the result's Values align with its entries.
// With the Index method it runs as a best-first SCAPE traversal that examines
// only the pivot-node entries whose optimistic bound can still beat the
// running k-th best value; the sweep methods keep a bounded result heap over
// one full pass, which is also the fallback Auto picks for non-indexable
// measures such as Jaccard.
func (e *Engine) TopK(m Measure, k int, largest bool, method Method) (Result, error) {
	return e.inner.TopK(m, k, largest, method)
}

// Explain plans an interval, top-k or MEC query, executes it, and returns the
// result with the plan: per-method cost estimates, the index's row count of
// an interval query, and the observed actuals (rows, duration).  With Auto
// the plan shows the planner's pick; with a concrete method it prices that
// method and keeps the alternatives for comparison.
//
//	res, plan, _ := eng.Explain(affinity.IntervalSpec(affinity.Correlation, affinity.GreaterThan(0.9)), affinity.Auto)
//	fmt.Println(plan) // MET correlation > 0.9 → SCAPE (est 118 rows, cost ...)
func (e *Engine) Explain(spec QuerySpec, method Method) (Result, QueryPlan, error) {
	return e.inner.Explain(spec, method)
}

// Batch answers a mixed list of interval, top-k and MEC specs (IntervalSpec,
// TopKSpec, ComputeSpec) against a single epoch, so a concurrent Advance
// cannot split it.  Interval specs on the same measure share one sweep with
// the per-pair values and normalizers computed once, index specs share the
// pivot-node traversal, and sweep-method top-k specs share one pass over the
// sequence pairs.  out[i] equals the answer to specs[i] asked alone, in the
// same order; the first invalid spec fails the batch.  A single MEC query is
// a batch of one.
func (e *Engine) Batch(specs []QuerySpec, method Method) ([]Result, error) {
	return e.inner.Batch(specs, method)
}

// Append buffers one newly arrived tick — one sample per series, in series
// order — for the next Advance; to advance at a fixed buffer size, call
// Advance once PendingSamples reaches it.  Append never blocks concurrent
// queries.
func (e *Engine) Append(tick []float64) error { return e.inner.Append(tick) }

// Advance folds every buffered tick into a new epoch: the window slides
// forward by the buffered count, stale affine relationships are re-fitted
// and the SCAPE index is rebuilt, all without blocking in-flight queries —
// the new epoch is swapped in atomically when complete.
func (e *Engine) Advance() (AdvanceInfo, error) { return e.inner.Advance() }

// PendingSamples returns the number of buffered ticks not yet folded into
// the window.
func (e *Engine) PendingSamples() int { return e.inner.PendingSamples() }

// StreamStats returns a snapshot of the engine's incremental-maintenance
// counters (see StreamStats).
func (e *Engine) StreamStats() StreamStats { return e.inner.StreamStats() }

// WriteSnapshot persists the engine's clustering and affine relationships so
// a later process can rebuild the engine with NewFromSnapshot without paying
// the SYMEX+ cost again.  The snapshot does not contain the raw samples; the
// same dataset must be supplied at load time.
func (e *Engine) WriteSnapshot(w io.Writer) error { return e.inner.WriteSnapshot(w) }

// NewFromSnapshot rebuilds an engine from a snapshot written by WriteSnapshot
// and the dataset it was built on.  Clustering-related options are ignored
// (they are part of the snapshot); SkipIndex, Parallelism, DriftBound and
// Cache are honoured, so a snapshot-loaded engine plans, caches and streams
// exactly like an identically configured New engine.
func NewFromSnapshot(d *Dataset, r io.Reader, opts Options) (*Engine, error) {
	eng, err := core.BuildFromSnapshot(d, r, opts.config())
	if err != nil {
		return nil, err
	}
	return &Engine{inner: eng}, nil
}
