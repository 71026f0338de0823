// Package core contains the Affinity engine: the component that wires
// together AFCLST clustering, SYMEX+ affine-relationship computation, the
// per-pivot measure summaries and the SCAPE index, and that answers the three
// query types of Section 2.2 (measure computation, measure threshold and
// measure range) with a selectable execution method:
//
//   - MethodNaive  (W_N): compute from the raw series for every request;
//   - MethodAffine (W_A): compute through affine relationships and the
//     pre-computed pivot summaries;
//   - MethodIndex  (SCAPE): answer threshold/range queries from the index;
//   - MethodAuto: route each query through the cost-based planner
//     (internal/plan), which picks the cheapest applicable method from the
//     epoch's table statistics.
//
// The engine is streaming-capable: all built artifacts (window data, affine
// relationships, pivot summaries, SCAPE index) live in an immutable
// engineState that queries read through an atomic pointer, while
// Append/Advance build the next epoch's state on the side and swap it in
// (see stream.go).  In-flight queries keep serving the epoch they started on.
//
// The public package affinity (repository root) is a thin facade over this
// engine.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"affinity/internal/cluster"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/sketch"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// Method selects how a query is executed.  The type (and its String
// rendering) lives in internal/plan so the planner can name methods without
// importing the engine.
type Method = plan.Method

const (
	// MethodNaive computes measures from scratch (the paper's W_N).
	MethodNaive = plan.MethodNaive
	// MethodAffine computes measures through affine relationships (W_A).
	MethodAffine = plan.MethodAffine
	// MethodIndex answers threshold/range queries from the SCAPE index.
	MethodIndex = plan.MethodIndex
	// MethodAuto lets the cost-based planner pick the method per query.
	MethodAuto = plan.MethodAuto
)

// ErrBadMethod is returned when a query requests an unsupported method.
var ErrBadMethod = errors.New("core: unsupported method for this query")

// ErrNoIndex is returned when an index query is issued against an engine that
// was built without the SCAPE index.
var ErrNoIndex = errors.New("core: engine was built without the SCAPE index")

// ErrEmptyRange is returned when a range query's lower bound exceeds its
// upper bound, on both the single and the batched path.
var ErrEmptyRange = errors.New("core: empty range")

// ErrBadTopK is returned for a top-k query with k < 1, on both the single and
// the batched path.
var ErrBadTopK = errors.New("core: top-k needs k >= 1")

// ErrBadConfig is returned by the build doors for a configuration no build
// can honour.
var ErrBadConfig = errors.New("core: bad configuration")

// ErrMeasureNotIndexed aliases the scape sentinel so callers can test the
// "measure not indexed" condition without importing internal/scape; single
// and batched index queries both fail with it.
var ErrMeasureNotIndexed = scape.ErrMeasureNotIndexed

// DefaultStatsRefreshEvery is the default number of Advance epochs between
// from-scratch refreshes of the quantities Advance slides instead of
// re-reducing — the pair-moment column and the sketches' coefficients —
// bounding the rounding drift of their recurrences.
const DefaultStatsRefreshEvery = 64

// StreamConfig parameterizes the incremental maintenance path (stream.go).
type StreamConfig struct {
	// DriftBound is the staleness threshold for affine relationships: after a
	// window slide, a relationship is re-fitted only when the relative
	// discrepancy between the variance of its non-common series predicted by
	// the stored transform (through the fresh pivot summary, Eq. 6) and the
	// series' true variance (the window's memoised moments) exceeds this
	// bound — an O(1)-per-pair surrogate for the relationship's LSFD drift.
	// Zero or negative refits every relationship on every Advance — the
	// exact-maintenance default.  NaN is rejected.
	DriftBound float64
	// StatsRefreshEvery is the number of epochs between refresh epochs (0
	// selects DefaultStatsRefreshEvery): on those the pair-moment column is
	// dropped and re-reduced by the next naive sweep and every sketch is
	// rebuilt from a full FFT.  Between them both are slid, and the refresh
	// bounds their rounding drift.
	StatsRefreshEvery int
}

// Config parameterizes engine construction.
type Config struct {
	// Clusters is the AFCLST k (default 6, the value the paper finds
	// sufficient for high accuracy).  AFCLST's γ_max and δ_min are
	// cluster.DefaultMaxIterations and cluster.DefaultMinChanges.
	Clusters int
	// Seed drives the AFCLST initialization.
	Seed int64
	// Clustering, when non-nil, bypasses AFCLST and builds on the provided
	// clustering (used by streaming equivalence tests and by rebuilds that
	// deliberately freeze the cluster structure).
	Clustering *cluster.Result
	// SkipIndex skips building the SCAPE index (MEC-only deployments).
	SkipIndex bool
	// Parallelism is the number of worker goroutines used across the whole
	// hot path: AFCLST assignment/update rounds, the SYMEX least-squares
	// fits, pivot summaries, calibration, drift scoring, SCAPE container
	// construction and sharded/batched query scans (0 or 1 = sequential).
	// Every parallel stage merges per-shard results in a deterministic
	// order, so results are identical at any level.
	Parallelism int
	// AssignedPairsOnly restricts the engine's pairwise query universe to the
	// pairs carrying a SYMEX assignment in its relationship result, instead of
	// all n·(n-1)/2 pairs of the data matrix.  A sharded coordinator builds
	// each shard from a pivot-restricted relationship result: with this flag
	// the shard's sweeps, planner statistics and fallback accounting all see
	// only the shard's own pairs, so the disjoint union across shards covers
	// every pair exactly once.  The universe is frozen at build time and
	// carried across Advance (the pair→pivot assignment is frozen too).
	AssignedPairsOnly bool
	// Stream configures the incremental maintenance path.
	Stream StreamConfig
	// Cache configures the epoch-aware semantic result cache consulted by the
	// shared query pipeline (internal/qcache).  The zero value disables caching;
	// cached results are byte-identical to cold execution at every tier, so
	// enabling it changes latency only.
	Cache qcache.Options
	// Sketch configures the DFT coefficient-sketch prescreen tier
	// (internal/sketch) used by naive-method pairwise sweeps.  The zero value
	// disables it; prescreened results are byte-identical to the plain exact
	// sweep by construction, so enabling it changes latency only.
	Sketch sketch.Options
}

func (c Config) withDefaults() Config {
	if c.Clusters <= 0 {
		c.Clusters = 6
	}
	if c.Stream.StatsRefreshEvery <= 0 {
		c.Stream.StatsRefreshEvery = DefaultStatsRefreshEvery
	}
	return c
}

// check rejects the bound that would silently mean something else: a NaN
// DriftBound refits everything.
func (c Config) check() error {
	if math.IsNaN(c.Stream.DriftBound) {
		return fmt.Errorf("%w: Stream.DriftBound is NaN", ErrBadConfig)
	}
	return nil
}

// BuildInfo reports what the build produced and how long each stage took.
// For a streaming engine the per-epoch fields (Epoch, RefitRelationships,
// ReusedRelationships, AdvanceDuration) describe the most recent Advance.
type BuildInfo struct {
	NumSeries         int
	NumSamples        int
	NumPairs          int
	NumPivots         int
	NumRelationships  int
	ClusterIterations int
	// PseudoInverseCount counts the pivots the m-sample kernel fitted: those
	// the moment form's exactness guard turned away.  PseudoInverseHits counts
	// the other fits.  Both are zero for an engine assembled from given
	// relationships (a snapshot or a shard).
	PseudoInverseCount int
	PseudoInverseHits  int
	ClusteringDuration time.Duration
	SymexDuration      time.Duration
	SummaryDuration    time.Duration
	IndexDuration      time.Duration
	TotalDuration      time.Duration
	IndexSequenceNodes int
	IndexPivotNodes    int
	IndexBuilt         bool

	// Streaming epoch counters.
	Epoch               int
	RefitRelationships  int
	ReusedRelationships int
	AdvanceDuration     time.Duration
}

// engineState is one immutable epoch of the engine: the data window and every
// artifact derived from it.  Queries load the current state once and never
// observe a partially updated epoch; Advance builds a full replacement state
// and swaps the pointer.
type engineState struct {
	data *timeseries.DataMatrix

	rel   *symex.Result
	index *scape.Index

	// kern is the window's columnar mirror, the blocked kernels' operand:
	// built by the first caller that needs it (naiveKernel), because
	// kernel.FromData copies a window that has no slab.
	kernOnce sync.Once
	kern     *kernel.Matrix
	kernErr  error

	// pairs, when non-nil, is the engine's restricted pairwise query universe
	// (Config.AssignedPairsOnly): the assigned pairs of rel in canonical
	// (U, V) order — the same order AllPairs uses, so merging several
	// restricted engines' sweep results by pair identity reconstructs the
	// unrestricted scan order.  Nil means the full n·(n-1)/2 universe.
	// pairPos[slot] is the position in pairs of the layout's assignment slot:
	// where the base-column fill writes the value a relationship propagates.
	// Both are frozen with the pair→pivot assignment they derive from.
	pairs   []timeseries.Pair
	pairPos []int32

	// summaries holds the pivot-side quantities every propagation needs — the
	// second-moment terms of O_p (covariance and Gram blocks, column sums) that
	// measure specs assemble their moment matrices from — one per assigned
	// pivot, aligned with rel.Layout().Pivots() and so found from a
	// relationship's slot without hashing.
	summaries []measure.PivotTerms
	// seriesMoments is the window's memoised per-series moments
	// (data.Moments()): what separable normalizers, self values and drift
	// scoring read — the one reduction W_N and the index read too.
	seriesMoments *timeseries.Moments
	// Per-series 1-D affine calibration against the series' cluster center:
	// s_v ≈ calibA[v]·r_ω(v) + calibB[v]·1.  Location measures of a series
	// are estimated as calibA·L(r_ω(v)) + calibB (Eq. 5 restricted to the
	// cluster-center column), so a W_A location query only has to reduce the
	// k cluster centers instead of all n series.
	calibA []float64
	calibB []float64

	// par is the worker count used by sharded and batched query scans over
	// this epoch (from Config.Parallelism; merge order is deterministic).
	par int

	// table summarizes the epoch for the cost-based planner, which prices
	// queries against it with plan.DefaultCostModel (MethodAuto, Explain).
	table plan.TableStats

	// cache is the engine-wide semantic result cache (nil when disabled).  The
	// same cache object is threaded through every epoch state — entries
	// survive Advance via delta repair rather than a flush — and it tracks the
	// engine's newest epoch itself, so queries against older pinned states
	// simply miss.
	cache *qcache.Cache

	// cols holds the epoch's affine base T-measure columns, the affine sweeps'
	// source of base values (basecolumns.go).  Filled lazily by the epoch's own
	// sweeps and never carried across Advance; only their buffers are, once
	// the epoch is recycled.
	cols *baseColumns

	// moments is the epoch's handle on the slid pair-moment column, the naive
	// sweeps' bound provider (sketchsweep.go): materialised by the first sweep
	// that needs it, carried across Advance from then on.
	moments *momentColumn

	// sketch is the epoch's coefficient-sketch set (nil when Config.Sketch is
	// disabled): the filter half of the filter-and-refine sweep tier.  Like the
	// index it is immutable per epoch; Advance derives the next epoch's set
	// incrementally (every series slides; the refresh epochs rebuild).
	sketch *sketch.Set

	epoch int
	info  BuildInfo

	// refs counts the calls pinning the epoch, or is claimed once the epoch
	// has been claimed for recycling; escaped marks an epoch an accessor
	// handed out, which is never recycled; retired marks an epoch an Advance
	// or a Restore replaced (view.go).
	refs    atomic.Int32
	escaped atomic.Bool
	retired atomic.Bool
}

// Engine is the Affinity framework instance over one (possibly streaming)
// data window.  All query methods are safe for concurrent use with each other
// and with Append/Advance; writers are serialized internally.
type Engine struct {
	cfg Config
	cur atomic.Pointer[engineState]

	// streamMu serializes Append/Advance and guards pending, stream and the
	// Advance scratch (batch, flags).
	streamMu sync.Mutex
	// pending buffers appended ticks, n samples each, one after the other,
	// until Advance transposes them into the next epoch and truncates it; its
	// capacity is reused from epoch to epoch.
	pending []float64
	// stream accumulates incremental-maintenance observability counters.
	stream StreamStats
	// sweep counts what the sweep stage did across every epoch: base-column
	// fills and reuses, pair-moment materialisations, sweeps and refinements.
	sweep sweepCounters
	// batch is the tick-transpose buffer and flags the drift-scoring flag
	// slice of the Advance in progress, reused by the next one.
	batch batchScratch
	flags []bool

	// spare is the last retired epoch nobody reads, held weakly: the next
	// Advance builds into its memory if a collection has not freed it first
	// (view.go).  recycles counts the Advances that did.
	spareMu  sync.Mutex
	spare    weak.Pointer[engineState]
	recycles atomic.Int64
}

// Build constructs the engine: AFCLST → SYMEX(+) → pivot summaries → SCAPE.
func Build(d *timeseries.DataMatrix, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rel, info, err := computeRelationships(d, cfg)
	if err != nil {
		return nil, err
	}
	return assembleEngine(d, cfg, rel, info, start)
}

// computeRelationships runs stages 1+2 of a build — AFCLST (unless
// cfg.Clustering is set), then SYMEX+ — and reports their timings and
// fit counters.
func computeRelationships(d *timeseries.DataMatrix, cfg Config) (*symex.Result, BuildInfo, error) {
	var info BuildInfo
	if err := cfg.check(); err != nil {
		return nil, info, err
	}
	if err := d.Validate(); err != nil {
		return nil, info, err
	}
	clustering := cfg.Clustering
	if clustering == nil {
		clusterStart := time.Now()
		var err error
		clustering, err = cluster.Run(d, cluster.Config{
			K:           cfg.Clusters,
			Seed:        cfg.Seed,
			Parallelism: cfg.Parallelism,
		})
		if err != nil {
			return nil, info, fmt.Errorf("core: clustering: %w", err)
		}
		info.ClusteringDuration = time.Since(clusterStart)
		info.ClusterIterations = clustering.Iterations
	}
	symexStart := time.Now()
	rel, err := symex.Compute(d, symex.Options{
		Clustering:         clustering,
		CachePseudoInverse: true,
		Parallelism:        cfg.Parallelism,
	})
	if err != nil {
		return nil, info, fmt.Errorf("core: symex: %w", err)
	}
	info.SymexDuration = time.Since(symexStart)
	info.PseudoInverseCount = rel.Stats.PseudoInverseComputations
	info.PseudoInverseHits = rel.Stats.PseudoInverseCacheHits
	return rel, info, nil
}

// assembleEngine runs stages 3–5 of a build over a relationship result,
// however it was obtained (computed, restricted to a shard, or decoded from a
// snapshot): pivot summaries and per-series statistics, the SCAPE index
// (unless cfg.SkipIndex) and the coefficient sketches.  info carries what the
// earlier stages recorded; start is when the build began.
func assembleEngine(d *timeseries.DataMatrix, cfg Config, rel *symex.Result, info BuildInfo, start time.Time) (*Engine, error) {
	st := &engineState{
		data:          d,
		seriesMoments: d.Moments(),
		rel:           rel,
		par:           cfg.Parallelism,
		info:          info,
	}
	if cfg.AssignedPairsOnly {
		st.pairs, st.pairPos = assignedPairs(rel)
	}

	// Stage 3: pre-processing — fill the pivot summaries (the paper's
	// "fill the values in the empty hash map pivotHash") and the per-series
	// statistics used by separable normalizers and location estimates.
	summaryStart := time.Now()
	if err := st.buildDerived(cfg.Parallelism); err != nil {
		return nil, err
	}
	st.info.SummaryDuration = time.Since(summaryStart)

	// Stage 4: the SCAPE index.
	if !cfg.SkipIndex {
		indexStart := time.Now()
		idx, err := scape.Build(d, rel, scape.Options{Parallelism: cfg.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("core: building SCAPE index: %w", err)
		}
		st.index = idx
		st.info.IndexDuration = time.Since(indexStart)
		st.info.IndexBuilt = true
		st.info.IndexSequenceNodes = idx.Stats().SequenceNodes
		st.info.IndexPivotNodes = idx.Stats().Pivots
	}

	st.info.NumSeries = d.NumSeries()
	st.info.NumSamples = d.NumSamples()
	st.info.NumPairs = st.numUniversePairs()
	st.info.NumPivots = rel.Stats.NumPivots
	st.info.NumRelationships = rel.Stats.NumRelationships
	// Stage 5: the coefficient-sketch prescreen tier (before finishPlanner so
	// the table statistics can describe it).
	if cfg.Sketch.Enabled {
		if err := st.buildSketch(cfg.Sketch, cfg.Parallelism, &sketch.Counters{}); err != nil {
			return nil, err
		}
	}

	st.info.TotalDuration = time.Since(start)
	st.finishPlanner(cfg)
	st.cache = qcache.New(cfg.Cache)
	e := &Engine{cfg: cfg}
	st.cols = e.newBaseColumns(nil)
	st.moments = e.newMomentColumn()
	e.cur.Store(st)
	return e, nil
}

// current returns the current epoch without pinning it: for reading the
// fields no epoch recycles (its window, info, epoch number, cache and
// sketches) and for the writers, which hold streamMu.  A query pins the epoch
// it reads instead (acquire), loading it exactly once so a concurrent Advance
// cannot tear the query across epochs.
func (e *Engine) current() *engineState { return e.cur.Load() }

// Info returns build statistics for the current epoch.
func (e *Engine) Info() BuildInfo { return e.current().info }

// Data returns the underlying data matrix of the current epoch.  Callers
// must treat it as read-only.
func (e *Engine) Data() *timeseries.DataMatrix { return e.current().data }

// Relationships exposes the current epoch's SYMEX result (for diagnostics
// and experiments).  The epoch escapes: it is never recycled.
func (e *Engine) Relationships() *symex.Result { return e.escape().rel }

// Epoch returns the number of Advance calls applied so far (0 for a freshly
// built engine).
func (e *Engine) Epoch() int { return e.current().epoch }

// buildDerived fills the pivot summaries and the calibration for the state's
// window.  Whatever is a function of the window alone or of the clustering
// alone — the series' and the centers' self-moments — is read off the memo on
// that object, never reduced here, so an epoch's derived state is exactly a
// cold build's on the same window.  The pivot terms and the centre
// covariances are the relationship layout's memo for the window: a build
// reads what Compute's fits reduced, an Advance reduces them here and the
// Refit and the index update after it read them.  parallelism shards the
// per-pivot and per-series work; the outputs are index-aligned slices, so they
// are identical at any level.
func (st *engineState) buildDerived(parallelism int) error {
	summaries, err := st.rel.PivotTerms(st.data, parallelism)
	if err != nil {
		return err
	}
	st.summaries = summaries

	// Per-series 1-D affine calibration against the cluster center: the
	// least-squares fit of s_v onto [r_ω(v), 1].  Because the design contains
	// the constant column, the residual has zero mean, so location estimates
	// propagated through (a, b) are exact for the mean and approximate for
	// the median and the mode (which is exactly the error pattern the paper
	// reports in Figs. 9–10).
	return st.calibrate(parallelism)
}

// calibratedLocations estimates L-measure m of each series of ids from its
// cluster center's through the series' 1-D calibration (Eq. 5 restricted to
// the cluster-center column): O(1) per series, the center's value memoised on
// the clustering.
func (st *engineState) calibratedLocations(m measure.Measure, ids []timeseries.SeriesID) ([]float64, error) {
	clustering := st.rel.Clustering
	centers, err := clustering.CenterLocations(m)
	if err != nil {
		return nil, err
	}
	values := make([]float64, len(ids))
	for i, id := range ids {
		omega, err := clustering.Omega(id)
		if err != nil {
			return nil, err
		}
		values[i] = st.calibA[id]*centers[omega] + st.calibB[id]
	}
	return values, nil
}

// calibrate fills calibA and calibB: the least-squares line of every series
// against its cluster center, a = cov(r, s)/var(r) and b = mean_s − a·mean_r
// (a = 0 under a constant center).  The self-moments are the memoised
// two-pass ones and the covariance is symex.Result.CenterCovariances — the one
// reduction of it per window, which the moment-form fits read too.
func (st *engineState) calibrate(parallelism int) error {
	covs, err := st.rel.CenterCovariances(st.data, parallelism)
	if err != nil {
		return err
	}
	clustering := st.rel.Clustering
	series, cms := st.seriesMoments, clustering.CenterMoments()
	n := st.data.NumSeries()
	st.calibA = make([]float64, n)
	st.calibB = make([]float64, n)
	for _, id := range st.data.IDs() {
		l := clustering.Assignment[id]
		var a float64
		if cms.Variance[l] != 0 {
			a = covs[id] / cms.Variance[l]
		}
		st.calibA[id], st.calibB[id] = a, series.Mean[id]-a*cms.Mean[l]
	}
	return nil
}

// numUniversePairs returns the size of the epoch's pairwise query universe:
// the restricted assigned-pair set under Config.AssignedPairsOnly, all pairs
// otherwise.  Sweeps walk it through universeChunk.
func (e *engineState) numUniversePairs() int {
	if e.pairs != nil {
		return len(e.pairs)
	}
	return e.data.NumPairs()
}

// assignedPairs extracts the assigned pairs of a relationship result in
// canonical (U, V) order — the AllPairs order, restricted — and the position
// of every assignment slot's pair in that list.
func assignedPairs(rel *symex.Result) ([]timeseries.Pair, []int32) {
	as := rel.AssignmentList()
	slots := make([]int32, len(as))
	for slot := range slots {
		slots[slot] = int32(slot)
	}
	slices.SortFunc(slots, func(a, b int32) int {
		return timeseries.ComparePairs(as[a].Pair, as[b].Pair)
	})
	pairs := make([]timeseries.Pair, len(as))
	pos := make([]int32, len(as))
	for i, slot := range slots {
		pairs[i] = as[slot].Pair
		pos[slot] = int32(i)
	}
	return pairs, pos
}

// ComputeRelationships runs only the clustering and relationship stages of a
// build (AFCLST unless cfg.Clustering is set, then SYMEX+) and returns
// the result without assembling an engine.  A sharded coordinator uses it to
// compute one global relationship set, partition it by pivot, and hand each
// shard its restriction through BuildFromRelationships — byte-identical to
// the stages a single Build would run, because it is the same code path.
func ComputeRelationships(d *timeseries.DataMatrix, cfg Config) (*symex.Result, error) {
	rel, _, err := computeRelationships(d, cfg.withDefaults())
	return rel, err
}

// BuildFromRelationships assembles an engine from a pre-computed relationship
// result, skipping the AFCLST and SYMEX stages: pivot summaries, per-series
// statistics and (unless cfg.SkipIndex) the SCAPE index are built from rel as
// given.  With cfg.AssignedPairsOnly set and a pivot-restricted rel this is
// the shard construction path; it is also the load path of snapshots.  The
// engine shares rel with the caller, so rel is pinned: no Advance writes into
// its relationships.
func BuildFromRelationships(d *timeseries.DataMatrix, cfg Config, rel *symex.Result) (*Engine, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if rel == nil || rel.Clustering == nil {
		return nil, fmt.Errorf("core: BuildFromRelationships needs a relationship result with clustering")
	}
	rel.Pin()
	return assembleEngine(d, cfg.withDefaults(), rel, BuildInfo{}, time.Now())
}
