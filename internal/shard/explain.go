package shard

import (
	"affinity/internal/core"
	"affinity/internal/measure"
	"affinity/internal/plan"
)

// ShardPlan is one shard's contribution to an explained query.
type ShardPlan struct {
	// Shard is the shard index.
	Shard int
	// Plan prices the chosen method against the shard's own table statistics
	// (its restricted pair universe), with the shard's observed actuals:
	// ActualRows is the number of result rows this shard contributed and
	// Duration its scan time.  For the streaming top-k merge the per-shard
	// scans interleave on the coordinator, so Duration stays zero and
	// Examined carries the pruning actual instead.
	Plan plan.Plan
	// Examined is the number of index entries this shard's top-k cursor
	// examined (zero for non-top-k or non-index queries).
	Examined int
}

// ExplainResult is the coordinator's explain output: the result, the global
// plan (identical to a single unsharded engine's), the sharded cost estimate,
// and the per-shard fan-out actuals.
type ExplainResult struct {
	Result core.QueryResult
	// Plan is the coordinator-level plan: estimates against the global table
	// (byte-identical to a single engine's plan for the same query), with
	// ActualRows and Duration observed on the sharded execution.
	Plan plan.Plan
	// ShardedCost is plan.CostModel.ShardedCost over the per-shard estimates
	// of the chosen method: max per-shard cost plus fan-out overhead.
	// Observability only — it never feeds the method choice.
	ShardedCost float64
	// Shards holds the per-shard plans and actuals; nil for L-measure
	// queries, which do not fan out.
	Shards []ShardPlan
}

// tracedState is a coordinator epoch that also records each shard's
// contribution to the one item it executes.
type tracedState struct {
	*coordState
	shards []shardActual
}

func (t *tracedState) Execute(items []core.Item, actuals []core.Actual) ([]core.QueryResult, error) {
	t.shards = make([]shardActual, len(t.views))
	return t.execute(items, actuals, t.shards)
}

// Explain plans a query against the global table, executes it by
// scatter-gather, and reports the global plan plus each shard's estimated
// cost, contributed rows and — for index top-k — examined entries.  A
// cache-served query has no fan-out, so its per-shard entries carry estimates
// only (zero actuals).
func (c *Coordinator) Explain(spec plan.QuerySpec, method core.Method) (ExplainResult, error) {
	t := &tracedState{coordState: c.state()}
	res, plans, err := core.Run(t, []plan.QuerySpec{spec}, method, true)
	if err != nil {
		return ExplainResult{}, err
	}
	out := ExplainResult{Result: res[0], Plan: plans[0]}
	if sp, known := measure.Find(spec.Measure); known && sp.Location() {
		// L-measure queries run on the coordinator's location index or on
		// shard 0's replicated per-series state; there is no fan-out to
		// attribute.
		return out, nil
	}
	perShardCost := make([]float64, len(t.views))
	for s, v := range t.views {
		shp, err := v.Plan(spec)
		if err != nil {
			return ExplainResult{}, err
		}
		entry := ShardPlan{Shard: s, Plan: shp.WithMethod(out.Plan.Method)}
		perShardCost[s] = entry.Plan.EstimatedCost
		if t.shards != nil {
			entry.Plan.ActualRows = t.shards[s].rows
			entry.Plan.Duration = t.shards[s].dur
			entry.Examined = t.shards[s].examined
		}
		out.Shards = append(out.Shards, entry)
	}
	out.ShardedCost = t.cost.ShardedCost(perShardCost)
	return out, nil
}
