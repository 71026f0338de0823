package core

import (
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
)

// This file is the engine's side of the cost-based planner (internal/plan):
// the per-epoch table statistics and the handles the shared pipeline
// (executor.go) plans, caches and verifies through.

// finishPlanner fills the epoch's planner inputs once every artifact is in
// place.  Everything here derives from the epoch state alone, so engines
// with identical epochs make identical plan choices at any Parallelism.
func (st *engineState) finishPlanner(cfg Config) {
	// Table statistics describe the epoch's pairwise query universe: the full
	// pair set normally, the restricted assigned set for a sharded engine
	// (AssignedPairsOnly), so per-shard plans price per-shard work.
	st.table = plan.TableStats{
		NumSeries:     st.data.NumSeries(),
		NumSamples:    st.data.NumSamples(),
		NumPairs:      st.numUniversePairs(),
		NumPivots:     st.rel.Stats.NumPivots,
		FallbackPairs: st.numUniversePairs() - st.rel.Len(),
	}
	if st.index != nil {
		st.table.Indexed = st.index.Measures()
	}
	if st.sketch != nil {
		st.table.SketchCoefficients = st.sketch.Coefficients()
		st.table.SketchAmbiguity = st.sketch.Ambiguity()
	}
}

// The planner and cache handles of Backend, and the index probes the
// pipeline reports and verifies with.

func (e *engineState) Epoch() int             { return e.epoch }
func (e *engineState) Table() plan.TableStats { return e.table }
func (e *engineState) Cache() *qcache.Cache   { return e.cache }
func (e *engineState) Replica() View          { return View{e} }

func (e *engineState) Selectivity(spec plan.QuerySpec) (scape.Selectivity, error) {
	if e.index == nil {
		return scape.Selectivity{}, ErrNoIndex
	}
	return e.index.EstimateSelectivity(spec.PairQuery())
}

// Plan prices a query spec against the epoch without executing it.
func (e *engineState) Plan(spec plan.QuerySpec) (plan.Plan, error) {
	return price(e, spec, MethodAuto)
}
