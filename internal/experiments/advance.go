package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"affinity/internal/core"
	"affinity/internal/timeseries"
)

// This file implements the incremental-maintenance experiment behind the
// "advance" id of cmd/affinity-bench: an end-to-end Advance throughput
// comparison of the maintenance policies (exact refit-all vs drift-bounded
// incremental), with latency distribution and allocation counts per epoch.

// AdvanceModeRow summarizes one maintenance policy of the throughput
// comparison.
type AdvanceModeRow struct {
	Mode       string
	DriftBound float64
	Epochs     int
	Slide      int

	AppendsPerSec  float64 // ticks folded per second of append+advance time
	MinLatency     time.Duration
	MedianLatency  time.Duration
	P95Latency     time.Duration
	MaxLatency     time.Duration
	AllocsPerEpoch float64 // heap allocations per Advance (incl. its appends)
	BytesPerEpoch  float64

	// ColdRebuild is the measured cost of the alternative every Advance
	// replaces — a full core.Build (AFCLST + SYMEX+ + summaries + SCAPE) on
	// the same window; RebuildSpeedup is ColdRebuild / MedianLatency.
	ColdRebuild    time.Duration
	RebuildSpeedup float64

	Stats core.StreamStats
}

// AdvanceThroughput runs the streaming engine through `epochs` advances of
// `slide` ticks under each maintenance policy, measuring latency distribution
// and allocations.  The tail of d past the initial window supplies the
// stream, so all policies see identical data.
func AdvanceThroughput(d *timeseries.DataMatrix, clusters int, seed int64, slide, epochs, parallelism int) ([]AdvanceModeRow, error) {
	m := d.NumSamples()
	stream := slide * epochs
	if stream >= m {
		return nil, fmt.Errorf("experiments: %d stream samples exceed the %d-sample dataset", stream, m)
	}
	window, err := d.Window(0, m-stream)
	if err != nil {
		return nil, err
	}
	n := d.NumSeries()
	ticks := make([][]float64, stream)
	for t := range ticks {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			s, err := d.Series(timeseries.SeriesID(v))
			if err != nil {
				return nil, err
			}
			tick[v] = s[m-stream+t]
		}
		ticks[t] = tick
	}

	// The baseline every Advance replaces: a cold Build on the same window.
	coldRebuild, err := timeRepeated(50*time.Millisecond, 8, func() error {
		_, err := core.Build(window, core.Config{Clusters: clusters, Seed: seed, Parallelism: parallelism})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Drift bounds chosen for the sensor stream's drift profile: tight bounds
	// (≤0.1) mark the vast majority of relationships stale (cross-group pairs
	// in mixed clusters drift every slide), so the index update re-derives
	// nearly every sequence store; the coarser bounds keep the stale fraction
	// under ~10% and most stores shared.
	policies := []struct {
		mode  string
		drift float64
	}{
		{"exact (refit all, rebuild index)", 0},
		{"drift 0.10 (stale-heavy)", 0.1},
		{"drift 0.50 (stale-light)", 0.5},
		{"drift 1.00 (stale-light)", 1.0},
	}
	rows := make([]AdvanceModeRow, 0, len(policies))
	for _, pol := range policies {
		eng, err := core.Build(window, core.Config{
			Clusters: clusters, Seed: seed, Parallelism: parallelism,
			Stream: core.StreamConfig{DriftBound: pol.drift},
		})
		if err != nil {
			return nil, err
		}
		row := AdvanceModeRow{Mode: pol.mode, DriftBound: pol.drift, Epochs: epochs, Slide: slide}
		latencies := make([]time.Duration, 0, epochs)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for e := 0; e < epochs; e++ {
			for _, tick := range ticks[e*slide : (e+1)*slide] {
				if err := eng.Append(tick); err != nil {
					return nil, err
				}
			}
			advStart := time.Now()
			if _, err := eng.Advance(); err != nil {
				return nil, err
			}
			latencies = append(latencies, time.Since(advStart))
		}
		total := time.Since(start)
		runtime.ReadMemStats(&after)

		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		row.MinLatency = latencies[0]
		row.MedianLatency = latencies[len(latencies)/2]
		row.P95Latency = latencies[(len(latencies)*95)/100]
		row.MaxLatency = latencies[len(latencies)-1]
		if total > 0 {
			row.AppendsPerSec = float64(stream) / total.Seconds()
		}
		row.AllocsPerEpoch = float64(after.Mallocs-before.Mallocs) / float64(epochs)
		row.BytesPerEpoch = float64(after.TotalAlloc-before.TotalAlloc) / float64(epochs)
		row.ColdRebuild = coldRebuild
		row.RebuildSpeedup = speedup(coldRebuild, row.MedianLatency)
		row.Stats = eng.StreamStats()
		rows = append(rows, row)
	}
	return rows, nil
}
