package affinity

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus the ablations called out in DESIGN.md and a
// few micro-benchmarks of the core building blocks.
//
// The figure/table benchmarks run the corresponding experiment driver from
// internal/experiments at a reduced dataset scale (DefaultBenchScale) so a
// full `go test -bench=. -benchmem` finishes in minutes; pass
// `-affinity.full` to run at the paper's dataset scale.  Key comparative
// quantities (speedups, RMSE) are attached to the benchmark output through
// b.ReportMetric, and cmd/affinity-bench prints the same rows as text tables.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"affinity/internal/baseline"
	"affinity/internal/cluster"
	"affinity/internal/core"
	"affinity/internal/experiments"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/shard"
	"affinity/internal/sketch"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

var fullScaleFlag = flag.Bool("affinity.full", false,
	"run the figure/table benchmarks at the paper's full dataset scale (slow)")

func benchScale() experiments.Scale {
	if *fullScaleFlag {
		return experiments.FullScale
	}
	return experiments.DefaultBenchScale
}

// reportTradeoff attaches the average speedup and worst-case RMSE of a
// trade-off run to the benchmark output.
func reportTradeoff(b *testing.B, rows []experiments.TradeoffRow) {
	b.Helper()
	if len(rows) == 0 {
		return
	}
	var speedupSum, worstRMSE float64
	for _, r := range rows {
		speedupSum += r.Speedup
		if r.RMSEPct > worstRMSE {
			worstRMSE = r.RMSEPct
		}
	}
	b.ReportMetric(speedupSum/float64(len(rows)), "avg-speedup")
	b.ReportMetric(worstRMSE, "worst-rmse-%")
}

// BenchmarkTable3Datasets regenerates Table 3 (dataset characteristics).
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9TradeoffSensor reproduces Fig. 9: the efficiency/accuracy
// trade-off of W_A vs W_N on sensor-data across the cluster sweep.
func BenchmarkFig9TradeoffSensor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportTradeoff(b, rows)
	}
}

// BenchmarkFig10TradeoffStock reproduces Fig. 10 (stock-data trade-off).
func BenchmarkFig10TradeoffStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportTradeoff(b, rows)
	}
}

// BenchmarkFig11AbsoluteTimeStock reproduces Fig. 11 (absolute W_N / W_A
// times on stock-data; same driver as Fig. 10, different presentation).
func BenchmarkFig11AbsoluteTimeStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchScale(), []int{6})
		if err != nil {
			b.Fatal(err)
		}
		reportTradeoff(b, rows)
	}
}

// BenchmarkFig12OnlineWorkload reproduces Fig. 12: MEC workloads in an online
// environment, W_N vs W_A (including the SYMEX+ build).
func BenchmarkFig12OnlineWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Speedup, "final-speedup")
		}
	}
}

// BenchmarkFig13SymexScalability reproduces Fig. 13: SYMEX vs SYMEX+ as the
// number of affine relationships grows.
func BenchmarkFig13SymexScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			var sum float64
			for _, r := range rows {
				sum += r.CacheSpeedup
			}
			b.ReportMetric(sum/float64(len(rows)), "avg-cache-factor")
		}
	}
}

// BenchmarkFig14IndexConstruction reproduces Fig. 14's covariance series:
// SCAPE index construction time vs the number of indexed affine
// relationships.  The index keeps nothing for the paper's mean series.
func BenchmarkFig14IndexConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchScale(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15ThresholdQueries reproduces Fig. 15: MET queries over
// correlation, covariance, median and dot product with W_N, W_A, W_F and the
// SCAPE index.
func BenchmarkFig15ThresholdQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		reportQueryRows(b, rows)
	}
}

// BenchmarkFig16RangeQueries reproduces Fig. 16: MER queries over correlation
// and covariance.
func BenchmarkFig16RangeQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		reportQueryRows(b, rows)
	}
}

func reportQueryRows(b *testing.B, rows []experiments.QueryRow) {
	b.Helper()
	if len(rows) == 0 {
		return
	}
	var scapeVsNaive float64
	for _, r := range rows {
		if r.ScapeTime > 0 {
			scapeVsNaive += float64(r.NaiveTime) / float64(r.ScapeTime)
		}
	}
	b.ReportMetric(scapeVsNaive/float64(len(rows)), "avg-scape-speedup-vs-WN")
}

// BenchmarkTable4Speedups reproduces Table 4: the SCAPE speedups over W_N,
// W_A and W_F at the maximum result size.
func BenchmarkTable4Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var vsNaive float64
		for _, r := range rows {
			vsNaive += r.SpeedupVsNaive
		}
		if len(rows) > 0 {
			b.ReportMetric(vsNaive/float64(len(rows)), "avg-speedup-vs-WN")
		}
	}
}

// BenchmarkAblationPinvCache measures the SYMEX+ pseudo-inverse cache
// ablation (paper: a 3.5–4x factor).
func BenchmarkAblationPinvCache(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.AblationPinvCache("sensor-data", sensor, 6, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.Factor, "cache-factor")
	}
}

// --- micro-benchmarks of the core building blocks -------------------------

// sortedNaiveValues returns the W_N values of m over every pair of the
// engine's window, sorted: the distribution benchmarks pick thresholds from.
func sortedNaiveValues(b *testing.B, engine *core.Engine, m measure.Measure) []float64 {
	b.Helper()
	vals, err := experiments.NaivePairSweep(baseline.NewNaive(engine.Data()), engine.Data(), m)
	if err != nil {
		b.Fatal(err)
	}
	sort.Float64s(vals)
	return vals
}

func benchmarkEngine(b *testing.B) *core.Engine {
	b.Helper()
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.Build(sensor, core.Config{Clusters: 6, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkEngineBuild measures the full build: AFCLST + SYMEX+ + summaries +
// SCAPE index.
func BenchmarkEngineBuild(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(sensor, core.Config{Clusters: 6, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures BuildFromSnapshot on the benchmark
// engine's snapshot: decoding the clustering and the relationships, then the
// summaries and the index BuildFromRelationships rebuilds.  CI tracks its
// allocs/op against BENCH_BUDGET.json: the decoder reads through one chunk
// buffer into a handful of slabs, so the restore allocates a few dozen objects
// beyond BenchmarkBuildFromRelationships, never one per relationship.
func BenchmarkSnapshotRestore(b *testing.B) {
	engine := benchmarkEngine(b)
	var snap bytes.Buffer
	if err := engine.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildFromSnapshot(engine.Data(), bytes.NewReader(snap.Bytes()), core.Config{Clusters: 6, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildFromRelationships is the floor a restore cannot go below:
// the benchmark engine's summaries and index rebuilt from relationships
// already in memory.  "warm" hands over the engine's own result, whose
// layout and clustering still memoise the window's pivot terms, centre
// covariances and centre locations; "cold" hands over a copy indexed afresh
// (outside the timer), so those reductions run again, as in a restore.
func BenchmarkBuildFromRelationships(b *testing.B) {
	engine := benchmarkEngine(b)
	cfg := core.Config{Clusters: 6, Seed: 42}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildFromRelationships(engine.Data(), cfg, engine.Relationships()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		rel := engine.Relationships()
		rels := make([]*symex.Relationship, len(rel.AssignmentList()))
		for slot := range rels {
			rels[slot] = rel.At(slot)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			layout, err := symex.NewLayout(engine.Data().NumSeries(), rel.AssignmentList())
			if err != nil {
				b.Fatal(err)
			}
			c := rel.Clustering
			clustering := &cluster.Result{Centers: c.Centers, Assignment: c.Assignment, ProjectionErrors: c.ProjectionErrors, Converged: c.Converged}
			cold := symex.NewResult(layout, clustering, slices.Clone(rels))
			b.StartTimer()
			if _, err := core.BuildFromRelationships(engine.Data(), cfg, cold); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotWrite measures WriteSnapshot of the benchmark engine.  CI
// tracks its allocs/op against BENCH_BUDGET.json: the snapshot is encoded into
// one buffer of its exact size and written once.
func BenchmarkSnapshotWrite(b *testing.B) {
	engine := benchmarkEngine(b)
	var snap bytes.Buffer
	if err := engine.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Reset()
		if err := engine.WriteSnapshot(&snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetBinary measures the dataset codec behind store segments on
// the benchmark's sensor matrix: WriteBinary into a reused buffer, and
// ReadBinary, which allocates per series its name and its samples.
func BenchmarkDatasetBinary(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	var raw bytes.Buffer
	if err := sensor.WriteBinary(&raw); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		var out bytes.Buffer
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := sensor.WriteBinary(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := timeseries.ReadBinary(bytes.NewReader(raw.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScapeCorrelationThreshold measures a single correlation MET query
// against the SCAPE index.  "warm" repeats it at one epoch, whose correlation
// value column the first query filled; "cold" times each epoch's first query,
// the column fill included, with the Advance that starts the epoch outside
// the timer.
func BenchmarkScapeCorrelationThreshold(b *testing.B) {
	query := func(b *testing.B, engine *core.Engine) {
		if _, err := engine.Interval(measure.Correlation, interval.GreaterThan(0.9), core.MethodIndex); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("warm", func(b *testing.B) {
		engine := benchmarkEngine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, engine)
		}
	})
	b.Run("cold", func(b *testing.B) {
		engine, ticks := streamBenchSetup(b, core.Config{Stream: core.StreamConfig{DriftBound: 0.05}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for s := 0; s < 8; s++ {
				if err := engine.Append(ticks[(i*8+s)%len(ticks)]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := engine.Advance(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			query(b, engine)
		}
	})
}

// BenchmarkIndexInterval times an index batch shaped like the streaming
// lifecycle's steady pass: MET at 1 % and 20 % and MER at 5 % of the pairs
// over correlation, covariance and Euclidean distance (the distance measure's
// tails at its low, "close" end).  CI tracks its allocs/op against
// BENCH_BUDGET.json: the scan fills pooled per-block buffers and allocates
// each answer once, at its final size, plus O(queries) bookkeeping — never a
// buffer grown by append.  The warm-up batch fills the epoch's Euclidean
// distance value column and the pool outside the timed region.
func BenchmarkIndexInterval(b *testing.B) {
	engine := benchmarkEngine(b)
	var batch []core.IntervalQuery
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.EuclideanDistance} {
		vals := sortedNaiveValues(b, engine, m)
		at := func(q float64) float64 { return vals[int(q*float64(len(vals)-1))] }
		if m == measure.EuclideanDistance {
			batch = append(batch,
				core.IntervalQuery{Measure: m, Interval: interval.LessThan(at(0.01))},
				core.IntervalQuery{Measure: m, Interval: interval.LessThan(at(0.20))},
				core.IntervalQuery{Measure: m, Interval: interval.Between(at(0.02), at(0.07))})
			continue
		}
		batch = append(batch,
			core.IntervalQuery{Measure: m, Interval: interval.GreaterThan(at(0.99))},
			core.IntervalQuery{Measure: m, Interval: interval.GreaterThan(at(0.80))},
			core.IntervalQuery{Measure: m, Interval: interval.Between(at(0.93), at(0.98))})
	}
	if _, err := engine.IntervalBatch(batch, core.MethodIndex); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.IntervalBatch(batch, core.MethodIndex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveCorrelationThreshold measures the same query with the naive
// method, for comparison with BenchmarkScapeCorrelationThreshold.
func BenchmarkNaiveCorrelationThreshold(b *testing.B) {
	engine := benchmarkEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Interval(measure.Correlation, interval.GreaterThan(0.9), core.MethodNaive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoDerivedInterval times a correlation MET through the index and
// through MethodAuto at one epoch whose correlation value column is warm, so
// the gap between the two rows is what resolving Auto costs; Auto plans from
// the epoch's table statistics alone and resolves to the index here.
func BenchmarkAutoDerivedInterval(b *testing.B) {
	engine := benchmarkEngine(b)
	iv := interval.GreaterThan(0.9)
	p, err := engine.View().Plan(plan.Interval(measure.Correlation, iv))
	if err != nil {
		b.Fatal(err)
	}
	if p.Method != core.MethodIndex {
		b.Fatalf("Auto resolves the correlation MET to %v, not the index: %v", p.Method, p)
	}
	for _, method := range []core.Method{core.MethodIndex, core.MethodAuto} {
		b.Run(method.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Interval(measure.Correlation, iv, method); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
		})
	}
}

// BenchmarkDistanceMeasureThreshold measures one MET query per
// registry-registered distance measure against the SCAPE index — a
// monotone-decreasing transform read from its value column — with one
// sub-benchmark row per measure
// so the CI bench smoke exercises each.
func BenchmarkDistanceMeasureThreshold(b *testing.B) {
	engine := benchmarkEngine(b)
	for _, m := range []measure.Measure{measure.EuclideanDistance, measure.MeanSquaredDifference, measure.AngularDistance} {
		m := m
		// Median-scale thresholds per measure (values from the affine sweep).
		vals, err := experiments.AffinePairSweep(engine, m)
		if err != nil {
			b.Fatal(err)
		}
		sort.Float64s(vals)
		tau := vals[len(vals)/2]
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Interval(m, interval.LessThan(tau), core.MethodIndex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopK measures top-k (MEK) queries per method and k: the SCAPE
// best-first traversal against the heap-over-full-sweep methods, with one
// sub-benchmark row per combination so the CI bench smoke exercises each.
func BenchmarkTopK(b *testing.B) {
	engine := benchmarkEngine(b)
	for _, tc := range []struct {
		m       measure.Measure
		largest bool
	}{
		{measure.Correlation, true},
		{measure.EuclideanDistance, false},
	} {
		for _, method := range []core.Method{core.MethodNaive, core.MethodAffine, core.MethodIndex, core.MethodAuto} {
			for _, k := range []int{10, 100} {
				tc, method, k := tc, method, k
				b.Run(fmt.Sprintf("%v/%v/k=%d", tc.m, method, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := engine.TopK(tc.m, k, tc.largest, method); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkShardTopK is the sharded-merge smoke row: one top-k (MEK) query
// through a 4-shard coordinator's streaming merge — per-shard SCAPE cursors
// polled best-first into one global k-heap with the running v_k broadcast
// back.  CI tracks its allocs/op against BENCH_BUDGET.json: the merge state
// is O(shards + k) — cursors, heap, and the merged result — and must never
// degrade to O(pairs) transient garbage.
func BenchmarkShardTopK(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	coord, err := shard.Build(sensor, shard.Config{
		Shards: 4,
		Engine: core.Config{Clusters: 6, Seed: 42},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coord.TopK(measure.Correlation, 10, true, core.MethodIndex); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.TopK(measure.Correlation, 10, true, core.MethodIndex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAffineCovarianceSweep measures the W_A full-pairwise covariance
// computation (the inner loop of the Fig. 9–11 experiments).
func BenchmarkAffineCovarianceSweep(b *testing.B) {
	engine := benchmarkEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AffinePairSweep(engine, measure.Covariance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveCovarianceSweep measures the W_N full-pairwise covariance
// computation.
func BenchmarkNaiveCovarianceSweep(b *testing.B) {
	engine := benchmarkEngine(b)
	naive := baseline.NewNaive(engine.Data())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NaivePairSweep(naive, engine.Data(), measure.Covariance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep is the blocked-kernel smoke row: one full W_N correlation
// sweep (the paper's, experiments.NaivePairSweep) on the blocked columnar
// kernels, with b.SetBytes reporting effective pair-data throughput (pairs ×
// samples × 2 columns × 8 bytes per sweep).  CI tracks its allocs/op against
// BENCH_BUDGET.json: the sweep allocates the pair list and the output vector
// — a count independent of the derived-measure transform and never O(pairs)
// transient garbage.  The columnar mirror and the hoisted moments are built
// lazily once per window, so the warm-up sweep keeps them out of the timed
// region, exactly as in a streaming deployment where many queries share one
// epoch.
func BenchmarkSweep(b *testing.B) {
	engine := benchmarkEngine(b)
	naive := baseline.NewNaive(engine.Data())
	if _, err := experiments.NaivePairSweep(naive, engine.Data(), measure.Correlation); err != nil {
		b.Fatal(err)
	}
	info := engine.Info()
	b.SetBytes(int64(info.NumPairs) * int64(info.NumSamples) * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NaivePairSweep(naive, engine.Data(), measure.Correlation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchSweep times an interval sweep through the coefficient-sketch
// filter-and-refine tier at a selective predicate (the 90th percentile of the
// cosine distribution — a dot-product base measure, because at the build
// epoch, a full fit, a correlation sweep reads the naive covariance column
// and never the sketch).  CI tracks its allocs/op against
// BENCH_BUDGET.json: the prescreen allocates the compacted result once, at its
// final size, and borrows its per-block scratch from a pool (the pair universe
// is enumerated chunk by chunk, not materialized) — never O(pairs) transient
// garbage.  The sketch
// set, the pair-moment column and the epoch's covariance sketch-bound column
// are per epoch, so the warm-up query keeps their fills out of the timed
// region: each timed sweep reads the bound column.  BenchmarkSketchSweepCold
// times the sweep that fills it.
func BenchmarkSketchSweep(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.Build(sensor, core.Config{
		Clusters: 6, Seed: 42, SkipIndex: true,
		Sketch: sketch.Options{Enabled: true, Coefficients: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	vals := sortedNaiveValues(b, engine, measure.Cosine)
	iv := interval.GreaterThan(vals[int(0.9*float64(len(vals)-1))])
	if _, err := engine.Interval(measure.Cosine, iv, core.MethodNaive); err != nil {
		b.Fatal(err)
	}
	info := engine.Info()
	b.SetBytes(int64(info.NumPairs) * int64(info.NumSamples) * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Interval(measure.Cosine, iv, core.MethodNaive); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ss := engine.StreamStats()
	if total := ss.SketchDefiniteIn + ss.SketchDefiniteOut + ss.SketchAmbiguous; total > 0 {
		b.ReportMetric(100*float64(ss.SketchAmbiguous)/float64(total), "ambiguous-%")
	}
}

// BenchmarkSketchSweepCold times BenchmarkSketchSweep's query as the first
// sketched sweep of each epoch: the covariance sketch-bound column's fill —
// one BoundBlock pass over the pair universe — included, the Advance that
// starts the epoch outside the timer.
func BenchmarkSketchSweepCold(b *testing.B) {
	engine, ticks := streamBenchSetup(b, core.Config{
		SkipIndex: true,
		Stream:    core.StreamConfig{DriftBound: 0.05},
		Sketch:    sketch.Options{Enabled: true, Coefficients: 16},
	})
	vals := sortedNaiveValues(b, engine, measure.Correlation)
	iv := interval.GreaterThan(vals[int(0.9*float64(len(vals)-1))])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s := 0; s < 8; s++ {
			if err := engine.Append(ticks[(i*8+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.Advance(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := engine.Interval(measure.Correlation, iv, core.MethodNaive); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming benchmarks -------------------------------------------------

// streamBenchSetup builds a streaming engine (cfg with 6 clusters, seed 42)
// and a supply of future ticks.
func streamBenchSetup(b *testing.B, cfg core.Config) (*core.Engine, [][]float64) {
	b.Helper()
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	cfg.Clusters, cfg.Seed = 6, 42
	engine, err := core.Build(sensor, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Synthesize ticks by replaying the window cyclically with a small
	// deterministic perturbation — enough to keep every epoch's fits honest
	// without the cost of re-generating data inside the timing loop.
	n := sensor.NumSeries()
	m := sensor.NumSamples()
	ticks := make([][]float64, m)
	for t := range ticks {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			s, err := sensor.Series(timeseries.SeriesID(v))
			if err != nil {
				b.Fatal(err)
			}
			tick[v] = s[t] * (1 + 1e-3*float64(v%7))
		}
		ticks[t] = tick
	}
	return engine, ticks
}

// BenchmarkStreamAppend measures the pure buffering cost of one tick.  CI
// tracks its allocs/op against BENCH_BUDGET.json: a tick is appended into the
// engine's one pending buffer, so once that has grown Append allocates nothing.
func BenchmarkStreamAppend(b *testing.B) {
	engine, ticks := streamBenchSetup(b, core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Append(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkAdvance measures one Advance folding `slide` ticks, under the
// given refit policy.
func benchmarkAdvance(b *testing.B, driftBound float64, slide int) {
	engine, ticks := streamBenchSetup(b, core.Config{Stream: core.StreamConfig{DriftBound: driftBound}})
	b.ResetTimer()
	var refit, reused int
	for i := 0; i < b.N; i++ {
		for s := 0; s < slide; s++ {
			if err := engine.Append(ticks[(i*slide+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		info, err := engine.Advance()
		if err != nil {
			b.Fatal(err)
		}
		refit += info.RefitRelationships
		reused += info.ReusedRelationships
	}
	if b.N > 0 {
		b.ReportMetric(float64(refit)/float64(b.N), "refit/epoch")
		b.ReportMetric(float64(reused)/float64(b.N), "reused/epoch")
	}
}

// BenchmarkStreamAdvanceExact measures an epoch with refit-all maintenance
// (DriftBound 0): the streaming upper bound, still much cheaper than a cold
// Build because clustering and exploration are reused.
func BenchmarkStreamAdvanceExact(b *testing.B) { benchmarkAdvance(b, 0, 8) }

// BenchmarkStreamAdvanceDriftBounded measures an epoch with selective
// refitting (DriftBound 0.05) on a quiet stream.
func BenchmarkStreamAdvanceDriftBounded(b *testing.B) { benchmarkAdvance(b, 0.05, 8) }

// BenchmarkAdvance is the incremental-maintenance smoke row: a drift-bounded
// Advance, so every epoch exercises the incremental index update (stores
// shared or re-derived per pivot + recompute) end to end.  CI tracks its
// allocs/op and B/op against a checked-in budget (BENCH_BUDGET.json) to catch
// allocation regressions in the pooled per-epoch scratch machinery and in the
// window slide, which writes only the new samples into a shared slab.
func BenchmarkAdvance(b *testing.B) {
	engine, ticks := advanceBenchSetup(b)
	const slide = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < slide; s++ {
			if err := engine.Append(ticks[(i*slide+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.Advance(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ss := engine.StreamStats()
	if b.N > 0 {
		b.ReportMetric(float64(ss.IndexUpdates)/float64(b.N), "delta-updates/epoch")
		b.ReportMetric(ss.PoolHitRate(), "pool-hit-rate")
	}
}

// BenchmarkAdvanceMedian is BenchmarkAdvance for a stream that asks for a
// median: every epoch is an Advance followed by a naive median interval.  The
// epoch's query reads the window's sorted columns, which the Advance slid
// forward from the previous window instead of sorting afresh.  CI tracks its
// allocs/op against BENCH_BUDGET.json.
func BenchmarkAdvanceMedian(b *testing.B) {
	engine, ticks := advanceBenchSetup(b)
	iv := interval.GreaterThan(0)
	// The build epoch's query sorts the window once; every later one slides.
	if _, err := engine.Interval(measure.Median, iv, core.MethodNaive); err != nil {
		b.Fatal(err)
	}
	const slide = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < slide; s++ {
			if err := engine.Append(ticks[(i*slide+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.Advance(); err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Interval(measure.Median, iv, core.MethodNaive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvanceCorrelation is BenchmarkAdvance for a stream that asks for
// a D-measure: every epoch is an Advance followed by a correlation interval
// by Index, whose scan fills the epoch's correlation value column.  The
// Advance builds the index into the slabs of an epoch retired two Advances
// back, and the fill writes into that epoch's value column, so an epoch
// allocates neither.  CI tracks its allocs/op and B/op against
// BENCH_BUDGET.json, with a ceiling below what an epoch allocating its value
// column would take; the collector is off while it runs, because a collection
// frees the weakly held spare and the Advance after it allocates everything.
func BenchmarkAdvanceCorrelation(b *testing.B) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	engine, ticks := advanceBenchSetup(b)
	iv := interval.GreaterThan(0.9)
	if _, err := engine.Interval(measure.Correlation, iv, core.MethodIndex); err != nil {
		b.Fatal(err)
	}
	const slide = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < slide; s++ {
			if err := engine.Append(ticks[(i*slide+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.Advance(); err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Interval(measure.Correlation, iv, core.MethodIndex); err != nil {
			b.Fatal(err)
		}
	}
}

// advanceBenchSetup builds the drift-bounded streaming engine of
// BenchmarkAdvance over the sensor data and the ticks it streams: the
// window's samples, slightly rescaled per series.
func advanceBenchSetup(b *testing.B) (*core.Engine, [][]float64) {
	b.Helper()
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.Build(sensor, core.Config{
		Clusters: 6, Seed: 42,
		Stream: core.StreamConfig{DriftBound: 0.05},
	})
	if err != nil {
		b.Fatal(err)
	}
	n := sensor.NumSeries()
	m := sensor.NumSamples()
	ticks := make([][]float64, m)
	for t := range ticks {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			s, err := sensor.Series(timeseries.SeriesID(v))
			if err != nil {
				b.Fatal(err)
			}
			tick[v] = s[t] * (1 + 1e-3*float64(v%7))
		}
		ticks[t] = tick
	}
	return engine, ticks
}

// BenchmarkColdRebuild measures the alternative the streaming path replaces:
// a full Build (AFCLST + SYMEX+ + summaries + SCAPE) on the slid window.
func BenchmarkColdRebuild(b *testing.B) {
	engine, ticks := streamBenchSetup(b, core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s := 0; s < 8; s++ {
			if err := engine.Append(ticks[(i*8+s)%len(ticks)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.Advance(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Build(engine.Data(), core.Config{Clusters: 6, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamQueryDuringAdvance measures index threshold query latency
// while a writer goroutine continuously advances the window, demonstrating
// the non-blocking read path.
func BenchmarkStreamQueryDuringAdvance(b *testing.B) {
	engine, ticks := streamBenchSetup(b, core.Config{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := engine.Append(ticks[i%len(ticks)]); err != nil {
				return
			}
			i++
			if i%8 == 0 {
				if _, err := engine.Advance(); err != nil {
					return
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Interval(measure.Correlation, interval.GreaterThan(0.9), core.MethodIndex); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// --- parallel engine benchmarks -------------------------------------------

// BenchmarkParallelBuild measures the cold build at several worker counts.
// Every phase fans out over the same workers: AFCLST's assignment by series
// block and its Gram power iterations one cluster per item, the SYMEX+ fits
// by pivot group, the summaries and the index by pivot.  On a single core
// the levels coincide (the determinism tests pin that results are identical
// either way).
func BenchmarkParallelBuild(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(sensor, core.Config{Clusters: 6, Seed: 42, Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelAdvance measures a full-refit Advance at several worker
// counts.
func BenchmarkParallelAdvance(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			sensor, err := experiments.GenerateSensorOnly(benchScale())
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.Build(sensor, core.Config{Clusters: 6, Seed: 42, Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			n := sensor.NumSeries()
			tick := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < 5; s++ {
					if err := engine.Append(tick); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := engine.Advance(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelIndexThreshold measures the sharded index-method MET scan
// at several worker counts.
func BenchmarkParallelIndexThreshold(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			engine, err := core.Build(sensor, core.Config{Clusters: 6, Seed: 42, Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Interval(measure.Correlation, interval.GreaterThan(0.9), core.MethodIndex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThresholdBatchVsSingles compares an 8-query MET interval batch with
// the same queries issued individually (the batch shares the pivot-node
// traversal; naive/affine batches additionally share per-pair values).
func BenchmarkThresholdBatchVsSingles(b *testing.B) {
	engine := benchmarkEngine(b)
	batch := []core.IntervalQuery{
		{Measure: measure.Correlation, Interval: interval.GreaterThan(0.9)},
		{Measure: measure.Correlation, Interval: interval.GreaterThan(0.5)},
		{Measure: measure.Covariance, Interval: interval.GreaterThan(0.0)},
		{Measure: measure.Cosine, Interval: interval.GreaterThan(0.8)},
		{Measure: measure.DotProduct, Interval: interval.LessThan(0.0)},
		{Measure: measure.Dice, Interval: interval.GreaterThan(0.7)},
		{Measure: measure.HarmonicMean, Interval: interval.GreaterThan(0.3)},
		{Measure: measure.Mean, Interval: interval.GreaterThan(0.0)},
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.IntervalBatch(batch, core.MethodIndex); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range batch {
				if _, err := engine.Interval(q.Measure, q.Interval, core.MethodIndex); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.IntervalBatch(batch, core.MethodNaive); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singles-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range batch {
				if _, err := engine.Interval(q.Measure, q.Interval, core.MethodNaive); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCachedInterval is the query-cache smoke row: one covariance MER
// query served repeatedly from the result cache's exact-hit tier.  CI tracks
// its allocs/op against BENCH_BUDGET.json: an exact hit resolves entirely on
// the lookup map plus a slice-header view of the stored rows, so the hit path
// must stay within two allocations per query and never re-run the sweep.
func BenchmarkCachedInterval(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.Build(sensor, core.Config{
		Clusters: 6, Seed: 42,
		Cache: qcache.Options{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the entry: the first issue misses, runs cold and stores.
	if _, err := engine.Interval(measure.Covariance, interval.Between(-0.5, 0.9), core.MethodAffine); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Interval(measure.Covariance, interval.Between(-0.5, 0.9), core.MethodAffine); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ss := engine.StreamStats()
	if ss.CacheExactHits < b.N {
		b.Fatalf("exact hits %d < %d iterations: the hit path was not exercised", ss.CacheExactHits, b.N)
	}
}

// BenchmarkCachedSweepMiss is the smoke row of a naive miss on a cache-enabled
// engine: cosine bands that each miss the result cache (equal widths at
// distinct offsets never contain one another) at one epoch whose pair-moment
// column the warm-up sweep materialised — the steady state between two
// Advances, which carry the column.  Cosine is a dot-product base measure with
// correlation's [−1, 1] range: at the build epoch, a full fit, correlation
// reads the naive covariance column and never the pair moments.  A miss classifies every pair against the
// column's bounds and sends only the rows it keeps (the cache stores their
// values) and the sliver it cannot decide to the kernels.  CI tracks its
// allocs/op against BENCH_BUDGET.json: the result, pairs and values, each
// allocated once at its final size; the per-block scratch is pooled — never
// the pair universe and never a column.  The cache keeps its fixed 32 MiB
// budget, so the stored bands accumulate over a run and a miss's scan for an
// entry that contains it walks them all: at a long -benchtime that scan adds
// to ns/op, though not to allocs/op.
func BenchmarkCachedSweepMiss(b *testing.B) {
	sensor, err := experiments.GenerateSensorOnly(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.Build(sensor, core.Config{
		Clusters: 6, Seed: 42, SkipIndex: true,
		Cache: qcache.Options{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	band := func(i int) interval.Interval {
		_, frac := math.Modf(float64(i+1) * math.Phi)
		lo := -1 + 1.9*frac
		return interval.Between(lo, lo+0.1)
	}
	if _, err := engine.Interval(measure.Cosine, band(-1), core.MethodNaive); err != nil {
		b.Fatal(err)
	}
	warm := engine.StreamStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Interval(measure.Cosine, band(i), core.MethodNaive); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ss := engine.StreamStats()
	refined := ss.MomentRefinedPairs - warm.MomentRefinedPairs
	if ss.MomentFills != 1 || ss.MomentSweeps-warm.MomentSweeps != int64(b.N) || ss.CacheMisses-warm.CacheMisses != b.N ||
		ss.SweepBaseFills != 0 || refined >= int64(b.N*sensor.NumPairs()) {
		b.Fatalf("%d iterations: %d moment fills, %d moment sweeps refining %d pairs, %d cache misses, %d base fills: not every iteration was a miss on a live moment column",
			b.N, ss.MomentFills, ss.MomentSweeps-warm.MomentSweeps, refined, ss.CacheMisses-warm.CacheMisses, ss.SweepBaseFills)
	}
	b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
}
