package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"affinity/internal/cluster"
	"affinity/internal/core"
	"affinity/internal/scape"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// This file implements the incremental-maintenance experiment behind the
// "advance" id of cmd/affinity-bench, in two parts:
//
//   - a stale-fraction sweep comparing a delta Update of the SCAPE index
//     against a full rebuild at the same relationship set, locating the
//     crossover fraction the Update fallback threshold is calibrated
//     against (scape.DefaultCrossover);
//   - an end-to-end Advance throughput comparison of the maintenance
//     policies (exact refit-all vs drift-bounded incremental), with
//     latency distribution and allocation counts per epoch.

// AdvanceSweepRow is one stale fraction of the Update-vs-Build sweep.
type AdvanceSweepRow struct {
	StaleFraction   float64
	UpdateTime      time.Duration // delta path: clone + delete/insert + recompute
	BuildTime       time.Duration // full scape.Build on the same window
	Speedup         float64       // BuildTime / UpdateTime
	EntriesDeleted  int
	EntriesInserted int
	StoresShared    int
	StoresCloned    int
}

// AdvanceStaleSweep slides the window of d by `slide` samples, refits
// progressively larger deterministic stale subsets of the relationships, and
// times the incremental index Update against a full Build for each fraction.
// The crossover threshold is disabled for the measurement so the delta path
// is timed even where it loses.
func AdvanceStaleSweep(d *timeseries.DataMatrix, clusters int, seed int64, slide int, fractions []float64) ([]AdvanceSweepRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
	}
	m := d.NumSamples()
	if slide <= 0 || slide >= m {
		return nil, fmt.Errorf("experiments: slide %d outside window of %d samples", slide, m)
	}
	w1, err := d.Window(0, m-slide)
	if err != nil {
		return nil, err
	}
	w2, err := d.Window(slide, m)
	if err != nil {
		return nil, err
	}
	rel1, err := symex.Compute(w1, symex.Options{
		Cluster:            cluster.Config{K: clusters, MaxIterations: 10, MinChanges: 0, Seed: seed},
		CachePseudoInverse: true,
	})
	if err != nil {
		return nil, err
	}
	idx1, err := scape.Build(w1, rel1, scape.Options{})
	if err != nil {
		return nil, err
	}

	// A deterministic shuffled pair order; fraction f takes the first f·|rel|.
	pairs := make([]timeseries.Pair, 0, rel1.Len())
	for _, a := range rel1.AssignmentList() {
		pairs = append(pairs, a.Pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].U != pairs[j].U {
			return pairs[i].U < pairs[j].U
		}
		return pairs[i].V < pairs[j].V
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	rows := make([]AdvanceSweepRow, 0, len(fractions))
	for _, frac := range fractions {
		k := int(frac * float64(len(pairs)))
		if k > len(pairs) {
			k = len(pairs)
		}
		stale := make(map[timeseries.Pair]bool, k)
		for _, p := range pairs[:k] {
			stale[p] = true
		}
		rel2, _, err := symex.Refit(w2, rel1, symex.RefitOptions{Stale: stale})
		if err != nil {
			return nil, err
		}

		row := AdvanceSweepRow{StaleFraction: frac}
		var us scape.UpdateStats
		row.UpdateTime, err = timeRepeated(30*time.Millisecond, 16, func() error {
			_, stats, err := idx1.Update(w2, rel2, stale, scape.UpdateOptions{Crossover: 2})
			us = stats
			return err
		})
		if err != nil {
			return nil, err
		}
		row.BuildTime, err = timeRepeated(30*time.Millisecond, 16, func() error {
			_, err := scape.Build(w2, rel2, scape.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		row.Speedup = speedup(row.BuildTime, row.UpdateTime)
		row.EntriesDeleted = us.EntriesDeleted
		row.EntriesInserted = us.EntriesInserted
		row.StoresShared = us.StoresShared
		row.StoresCloned = us.StoresCloned
		rows = append(rows, row)
	}
	return rows, nil
}

// CrossoverPoint interpolates the stale fraction where the delta path stops
// winning (speedup crosses 1) from a sweep; it returns 1 if the delta path
// wins everywhere.
func CrossoverPoint(rows []AdvanceSweepRow) float64 {
	for i, r := range rows {
		if r.Speedup >= 1 {
			continue
		}
		if i == 0 {
			return r.StaleFraction
		}
		prev := rows[i-1]
		// Linear interpolation between the last winning and first losing
		// fraction on the speedup axis.
		span := prev.Speedup - r.Speedup
		if span <= 0 {
			return r.StaleFraction
		}
		t := (prev.Speedup - 1) / span
		return prev.StaleFraction + t*(r.StaleFraction-prev.StaleFraction)
	}
	return 1
}

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
	// in mixed clusters drift every slide), always exceeding the crossover, so
	// they exercise the rebuild path; the coarser bounds keep the stale
	// fraction under ~10% and exercise the incremental delta path.
	policies := []struct {
		mode  string
		drift float64
	}{
		{"exact (refit all, rebuild index)", 0},
		{"drift 0.10 (stale-heavy, rebuilds)", 0.1},
		{"drift 0.50 (delta path)", 0.5},
		{"drift 1.00 (delta path)", 1.0},
	}
	rows := make([]AdvanceModeRow, 0, len(policies))
	for _, pol := range policies {
		eng, err := core.Build(window, core.Config{
			Clusters: clusters, Seed: seed, Parallelism: parallelism,
			Stream: core.StreamConfig{DriftBound: pol.drift, Parallelism: parallelism},
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
