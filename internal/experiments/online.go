package experiments

import (
	"fmt"
	"time"

	"affinity/internal/core"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
	"affinity/internal/workload"
)

// OnlineQueryCounts is the query-count sweep of Fig. 12 (15k to 90k queries).
var OnlineQueryCounts = []int{15000, 30000, 45000, 60000, 75000, 90000}

// OnlineRow is one point of Fig. 12: the total time to answer a MEC workload
// of the given size with W_N and with W_A.  The W_A time includes the initial
// SYMEX+ build, exactly as in the paper ("the time for the W_A method shown
// in Fig. 12 also includes the initial time taken by the SYMEX+ algorithm").
type OnlineRow struct {
	Dataset    string
	NumQueries int
	NaiveTime  time.Duration
	AffineTime time.Duration
	Speedup    float64
}

// OnlineConfig parameterizes the online-environment experiment.
type OnlineConfig struct {
	// Clusters is the AFCLST k (the paper uses 6).
	Clusters int
	// SeriesPerQuery is |ψ| (the paper uses 10).
	SeriesPerQuery int
	// Seed drives both the engine build and the workload.
	Seed int64
}

// OnlineWorkload reproduces the Fig. 12 experiment for one dataset: MEC
// queries whose measure is chosen uniformly and whose series follow a
// power-law popularity are answered with W_N and W_A for increasing workload
// sizes.
func OnlineWorkload(name string, d *timeseries.DataMatrix, queryCounts []int, cfg OnlineConfig) ([]OnlineRow, error) {
	if cfg.Clusters <= 0 {
		cfg.Clusters = 6
	}
	if cfg.SeriesPerQuery <= 0 {
		cfg.SeriesPerQuery = workload.DefaultSeriesPerQuery
	}
	if len(queryCounts) == 0 {
		queryCounts = OnlineQueryCounts
	}

	gen, err := workload.NewGenerator(workload.Config{
		NumSeries:      d.NumSeries(),
		SeriesPerQuery: cfg.SeriesPerQuery,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Generate the largest workload once; prefixes of it form the smaller
	// workloads so the sweep is monotone by construction.
	maxCount := 0
	for _, c := range queryCounts {
		if c > maxCount {
			maxCount = c
		}
	}
	queries := gen.Batch(maxCount)

	// W_N: no build cost, every query recomputes from the raw series.
	naiveEngine, err := core.Build(d, core.Config{Clusters: cfg.Clusters, Seed: cfg.Seed, SkipIndex: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: building engine: %w", err)
	}

	var rows []OnlineRow
	for _, count := range queryCounts {
		if count > len(queries) {
			count = len(queries)
		}
		batch := queries[:count]

		naiveTime, err := timeOnce(func() error {
			return runMECBatch(naiveEngine, batch, core.MethodNaive)
		})
		if err != nil {
			return nil, err
		}

		// W_A: rebuild the engine inside the timed section so the one-time
		// SYMEX+ cost is included, as in the paper.
		var affineEngine *core.Engine
		affineTime, err := timeOnce(func() error {
			var innerErr error
			affineEngine, innerErr = core.Build(d, core.Config{Clusters: cfg.Clusters, Seed: cfg.Seed, SkipIndex: true})
			if innerErr != nil {
				return innerErr
			}
			return runMECBatch(affineEngine, batch, core.MethodAffine)
		})
		if err != nil {
			return nil, err
		}

		rows = append(rows, OnlineRow{
			Dataset:    name,
			NumQueries: count,
			NaiveTime:  naiveTime,
			AffineTime: affineTime,
			Speedup:    speedup(naiveTime, affineTime),
		})
	}
	return rows, nil
}

// runMECBatch answers every MEC query of the batch with the given method.
func runMECBatch(engine *core.Engine, batch []workload.MECQuery, method core.Method) error {
	for _, q := range batch {
		if q.Measure.Class() == measure.LocationClass {
			if _, err := engine.ComputeLocation(q.Measure, q.Series, method); err != nil {
				return err
			}
			continue
		}
		if _, err := engine.ComputePairwise(q.Measure, q.Series, method); err != nil {
			return err
		}
	}
	return nil
}

// Fig12 reproduces Fig. 12 on both datasets at the given scale.  The query
// counts are scaled down together with the datasets so the experiment stays
// proportionate.
func Fig12(s Scale, queryCounts []int) ([]OnlineRow, error) {
	ds, err := GenerateDatasets(s)
	if err != nil {
		return nil, err
	}
	if len(queryCounts) == 0 {
		div := s.SeriesDivisor
		if div < 1 {
			div = 1
		}
		for _, c := range OnlineQueryCounts {
			scaled := c / div
			if scaled < 10 {
				scaled = 10
			}
			queryCounts = append(queryCounts, scaled)
		}
	}
	cfg := OnlineConfig{Clusters: 6, SeriesPerQuery: 10, Seed: s.Seed}
	sensorRows, err := OnlineWorkload("sensor-data", ds.Sensor, queryCounts, cfg)
	if err != nil {
		return nil, err
	}
	stockRows, err := OnlineWorkload("stock-data", ds.Stock, queryCounts, cfg)
	if err != nil {
		return nil, err
	}
	return append(sensorRows, stockRows...), nil
}
