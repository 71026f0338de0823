package experiments

import (
	"fmt"
	"time"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// This file implements the parallel-scaling experiment behind the "parallel"
// id of cmd/affinity-bench: the same build, advance and query workload run
// at several Parallelism levels, with per-phase timings, so the scaling of
// every stage (clustering+fits, summaries, SCAPE construction, drift-scored
// Advance, sharded and batched queries) is visible in one table.
// Determinism across levels is asserted while timing: the rows are only
// returned if every level produced the same MET result set, entry for entry
// and in the same order.

// StandardThresholdBatch is the 8-query mixed MET workload shared by the
// parallel-scaling experiment and BenchmarkThresholdBatchVsSingles, so
// BENCH_pr2.json's batch columns always describe the same workload.
func StandardThresholdBatch() []core.IntervalQuery {
	return []core.IntervalQuery{
		{Measure: stats.Correlation, Interval: interval.GreaterThan(0.9)},
		{Measure: stats.Correlation, Interval: interval.GreaterThan(0.5)},
		{Measure: stats.Covariance, Interval: interval.GreaterThan(0.0)},
		{Measure: stats.Cosine, Interval: interval.GreaterThan(0.8)},
		{Measure: stats.DotProduct, Interval: interval.LessThan(0.0)},
		{Measure: stats.Dice, Interval: interval.GreaterThan(0.7)},
		{Measure: stats.HarmonicMean, Interval: interval.GreaterThan(0.3)},
		{Measure: stats.Mean, Interval: interval.GreaterThan(0.0)},
	}
}

// ParallelRow reports one parallelism level of the scaling experiment.
type ParallelRow struct {
	Parallelism int

	// Build phases (cold build on the full dataset).
	ClusterTime time.Duration // explicit AFCLST run
	SymexTime   time.Duration // exploration + least-squares fits
	SummaryTime time.Duration // pivot summaries, calibration, normalizers
	IndexTime   time.Duration // SCAPE index construction
	BuildTotal  time.Duration

	// One Advance over `slide` buffered ticks with everything re-fitted.
	AdvanceTime time.Duration

	// Query workload timings.
	ThresholdIndexTime  time.Duration // index-method correlation MET
	ThresholdAffineTime time.Duration // affine-method correlation MET (sharded sweep)
	BatchTime           time.Duration // ThresholdBatch of `batchSize` mixed queries
	SingleLoopTime      time.Duration // same queries as individual calls

	// QueryResultSize is the index-method MET result size; the full
	// result set is compared across levels before the rows are returned.
	QueryResultSize int

	// Stream holds the engine's incremental-maintenance counters after the
	// Advance (index update/rebuild decisions, pool behavior, phase timings).
	Stream core.StreamStats
}

// ParallelScaling runs the scaling experiment on the given dataset at each
// parallelism level.  ticks supplies one Advance worth of stream input (may
// be zero-length to skip the Advance measurement).
func ParallelScaling(d *timeseries.DataMatrix, ticks [][]float64, clusters int, seed int64, levels []int) ([]ParallelRow, error) {
	if len(levels) == 0 {
		levels = []int{1, 2, 4, 8}
	}
	batch := StandardThresholdBatch()

	rows := make([]ParallelRow, 0, len(levels))
	var referencePairs []timeseries.Pair
	for _, p := range levels {
		row := ParallelRow{Parallelism: p}
		var eng *core.Engine
		buildStart := time.Now()
		eng, err := core.Build(d, core.Config{Clusters: clusters, Seed: seed, Parallelism: p})
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel build at %d: %w", p, err)
		}
		row.BuildTotal = time.Since(buildStart)
		info := eng.Info()
		row.ClusterTime = info.ClusteringDuration
		row.SymexTime = info.SymexDuration
		row.SummaryTime = info.SummaryDuration
		row.IndexTime = info.IndexDuration

		if len(ticks) > 0 {
			for _, tick := range ticks {
				if err := eng.Append(tick); err != nil {
					return nil, err
				}
			}
			advStart := time.Now()
			if _, err := eng.Advance(); err != nil {
				return nil, err
			}
			row.AdvanceTime = time.Since(advStart)
			row.Stream = eng.StreamStats()
		}

		var res core.QueryResult
		row.ThresholdIndexTime, err = timeRepeated(50*time.Millisecond, 64, func() error {
			var err error
			res, err = eng.Interval(stats.Correlation, interval.GreaterThan(0.9), core.MethodIndex)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.QueryResultSize = res.Size()
		// Determinism guard: the full result set — membership AND order —
		// must match the first level exactly.
		if referencePairs == nil {
			referencePairs = res.Pairs
		} else {
			if len(res.Pairs) != len(referencePairs) {
				return nil, fmt.Errorf("experiments: parallelism %d returned %d results, parallelism %d returned %d — determinism violated",
					p, len(res.Pairs), levels[0], len(referencePairs))
			}
			for i := range res.Pairs {
				if res.Pairs[i] != referencePairs[i] {
					return nil, fmt.Errorf("experiments: parallelism %d result %d is %v, parallelism %d has %v — determinism violated",
						p, i, res.Pairs[i], levels[0], referencePairs[i])
				}
			}
		}

		row.ThresholdAffineTime, err = timeRepeated(50*time.Millisecond, 16, func() error {
			_, err := eng.Interval(stats.Correlation, interval.GreaterThan(0.9), core.MethodAffine)
			return err
		})
		if err != nil {
			return nil, err
		}

		row.BatchTime, err = timeRepeated(50*time.Millisecond, 16, func() error {
			_, err := eng.IntervalBatch(batch, core.MethodIndex)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.SingleLoopTime, err = timeRepeated(50*time.Millisecond, 16, func() error {
			for _, q := range batch {
				if _, err := eng.Interval(q.Measure, q.Interval, core.MethodIndex); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		rows = append(rows, row)
	}
	return rows, nil
}
