// Command affinity-bench regenerates the tables and figures of the paper's
// evaluation (Section 6) as text output.  Every experiment identifier maps to
// one driver in internal/experiments; see DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for recorded results.
//
// Examples:
//
//	affinity-bench -experiment table3
//	affinity-bench -experiment fig9 -series-div 8 -sample-div 2
//	affinity-bench -experiment all -series-div 16 -sample-div 6
//	affinity-bench -experiment fig13 -full        # paper-scale (slow)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"affinity/internal/core"
	"affinity/internal/experiments"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

var experimentOrder = []string{
	"table3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "table4", "ablation-pinv", "ablation-pruning",
	"parallel", "planner", "measures", "topk", "advance", "shard",
	"cache", "sketch",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "affinity-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("affinity-bench", flag.ContinueOnError)
	var (
		experiment  = fs.String("experiment", "all", "experiment id: "+strings.Join(experimentOrder, ", ")+" or all")
		seriesDiv   = fs.Int("series-div", 16, "divide the paper's number of series by this factor")
		sampleDiv   = fs.Int("sample-div", 6, "divide the paper's samples per series by this factor")
		seed        = fs.Int64("seed", 42, "dataset and clustering seed")
		full        = fs.Bool("full", false, "run at the paper's full dataset scale (overrides the divisors; slow)")
		parallelism = fs.String("parallelism", "1,2,4,8", "comma-separated worker counts for the parallel experiment")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels(*parallelism)
	if err != nil {
		return err
	}

	scale := experiments.Scale{SeriesDivisor: *seriesDiv, SampleDivisor: *sampleDiv, Seed: *seed}
	if *full {
		scale = experiments.FullScale
		scale.Seed = *seed
	}
	fmt.Fprintf(out, "scale: series/%d samples/%d seed=%d\n\n",
		scale.SeriesDivisor, scale.SampleDivisor, scale.Seed)

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experimentOrder
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Fprintf(out, "=== %s ===\n", id)
		if err := runExperiment(id, scale, levels, out); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintf(out, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseLevels parses the -parallelism flag ("1,2,4,8").
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -parallelism entry %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-parallelism lists no levels")
	}
	return out, nil
}

func runExperiment(id string, scale experiments.Scale, levels []int, out io.Writer) error {
	switch id {
	case "table3":
		rows, err := experiments.Table3(scale)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\tsampling (min)\tseries (n)\tsamples (m)\tmax affine relationships")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%d\n",
				r.Name, r.SamplingIntervalMins, r.NumSeries, r.SamplesPerSeries, r.MaxAffineRelationships)
		}
		return w.Flush()

	case "fig9", "fig10", "fig11":
		var rows []experiments.TradeoffRow
		var err error
		switch id {
		case "fig9":
			rows, err = experiments.Fig9(scale, nil)
		case "fig10":
			rows, err = experiments.Fig10(scale, nil)
		default:
			rows, err = experiments.Fig11(scale, nil)
		}
		if err != nil {
			return err
		}
		w := newTable(out)
		if id == "fig11" {
			fmt.Fprintln(w, "dataset\tmeasure\tk\tWN time\tWA time")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%v\t%d\t%v\t%v\n", r.Dataset, r.Measure, r.Clusters,
					r.NaiveTime.Round(time.Microsecond), r.AffineTime.Round(time.Microsecond))
			}
			return w.Flush()
		}
		fmt.Fprintln(w, "dataset\tmeasure\tk\tspeedup\tRMSE (%)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%d\t%.2fx\t%.3g\n", r.Dataset, r.Measure, r.Clusters, r.Speedup, r.RMSEPct)
		}
		return w.Flush()

	case "fig12":
		rows, err := experiments.Fig12(scale, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\tqueries\tWN time\tWA time (incl. SYMEX+)\tspeedup")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%.2fx\n", r.Dataset, r.NumQueries,
				r.NaiveTime.Round(time.Microsecond), r.AffineTime.Round(time.Microsecond), r.Speedup)
		}
		return w.Flush()

	case "fig13":
		rows, err := experiments.Fig13(scale, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\trelationships\tSYMEX time\tSYMEX+ time\tfactor")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%.2fx\n", r.Dataset, r.Relationships,
				r.SymexTime.Round(time.Microsecond), r.SymexPlusTime.Round(time.Microsecond), r.CacheSpeedup)
		}
		return w.Flush()

	case "fig14":
		rows, err := experiments.Fig14(scale, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "relationships\tcovariance index build\tmean index build")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%v\t%v\n", r.Relationships,
				r.CovarianceTime.Round(time.Microsecond), r.MeanTime.Round(time.Microsecond))
		}
		return w.Flush()

	case "fig15", "fig16":
		var rows []experiments.QueryRow
		var err error
		if id == "fig15" {
			rows, err = experiments.Fig15(scale)
		} else {
			rows, err = experiments.Fig16(scale)
		}
		if err != nil {
			return err
		}
		w := newTable(out)
		// WN is the paper's raw-series scan; "WN filtered" is the engine's
		// naive method repeated on one engine, whose sweep stage reduces only
		// the pairs its slid pair moments cannot decide.
		fmt.Fprintln(w, "type\tmeasure\tresult size\tWN\tWN filtered\tWA\tWF\tSCAPE")
		for _, r := range rows {
			wf, filtered := "-", "-"
			if r.DFTTime > 0 {
				wf = r.DFTTime.Round(time.Microsecond).String()
			}
			if r.FilteredNaiveTime > 0 {
				filtered = r.FilteredNaiveTime.Round(time.Microsecond).String()
			}
			fmt.Fprintf(w, "%s\t%v\t%d\t%v\t%s\t%v\t%s\t%v\n", r.QueryType, r.Measure, r.ResultSize,
				r.NaiveTime.Round(time.Microsecond), filtered, r.AffineTime.Round(time.Microsecond),
				wf, r.ScapeTime.Round(time.Microsecond))
		}
		return w.Flush()

	case "table4":
		rows, err := experiments.Table4(scale)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "query\tmeasure\tresult size\tspeedup vs WN\tvs WA\tvs WF")
		for _, r := range rows {
			wf := "-"
			if r.SpeedupVsDFT > 0 {
				wf = fmt.Sprintf("%.1fx", r.SpeedupVsDFT)
			}
			fmt.Fprintf(w, "%s\t%v\t%d\t%.1fx\t%.1fx\t%s\n",
				r.QueryType, r.Measure, r.ResultSize, r.SpeedupVsNaive, r.SpeedupVsAffine, wf)
		}
		return w.Flush()

	case "ablation-pinv":
		ds, err := experiments.GenerateDatasets(scale)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\trelationships\tSYMEX\tSYMEX+\tfactor\tpinv without cache\twith cache")
		sensorRow, err := experiments.AblationPinvCache("sensor-data", ds.Sensor, 6, scale.Seed)
		if err != nil {
			return err
		}
		stockRow, err := experiments.AblationPinvCache("stock-data", ds.Stock, 6, scale.Seed)
		if err != nil {
			return err
		}
		for _, r := range []experiments.PinvCacheRow{sensorRow, stockRow} {
			fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%.2fx\t%d\t%d\n", r.Dataset, r.Relationships,
				r.WithoutCacheTime.Round(time.Microsecond), r.WithCacheTime.Round(time.Microsecond),
				r.Factor, r.PinvWithoutCache, r.PinvWithCache)
		}
		return w.Flush()

	case "ablation-pruning":
		sensor, err := experiments.GenerateSensorOnly(scale)
		if err != nil {
			return err
		}
		rows, err := experiments.AblationScapePruning(sensor, 6, scale.Seed, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "threshold\tresult size\twith pruning\twithout pruning\tspeedup\tidentical results")
		for _, r := range rows {
			fmt.Fprintf(w, "%.2f\t%d\t%v\t%v\t%.2fx\t%v\n", r.Threshold, r.ResultSize,
				r.WithPruning.Round(time.Microsecond), r.WithoutPruning.Round(time.Microsecond),
				r.PruningSpeedup, r.ResultsIdentical)
		}
		return w.Flush()

	case "parallel":
		// Runs on stock-data — the scale the ROADMAP's query-throughput goal
		// is stated against (996 series at -series-div 1).
		ds, err := experiments.GenerateDatasets(scale)
		if err != nil {
			return err
		}
		stock := ds.Stock
		// One Advance worth of ticks: re-use the last samples of the window
		// as a synthetic slide (the timing, not the values, is the point).
		const slide = 5
		n := stock.NumSeries()
		ticks := make([][]float64, slide)
		for s := range ticks {
			tick := make([]float64, n)
			for v := 0; v < n; v++ {
				series, err := stock.Series(timeseries.SeriesID(v))
				if err != nil {
					return err
				}
				tick[v] = series[len(series)-slide+s]
			}
			ticks[s] = tick
		}
		rows, err := experiments.ParallelScaling(stock, ticks, 6, scale.Seed, levels)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "P\tcluster\tsymex\tsummaries\tindex\tbuild total\tadvance\tMET SCAPE\tMET WA\tbatch(8)\tsingles(8)\tresults")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\t%v\t%v\t%v\t%v\t%v\t%v\t%d\n",
				r.Parallelism,
				r.ClusterTime.Round(time.Microsecond), r.SymexTime.Round(time.Microsecond),
				r.SummaryTime.Round(time.Microsecond), r.IndexTime.Round(time.Microsecond),
				r.BuildTotal.Round(time.Microsecond), r.AdvanceTime.Round(time.Microsecond),
				r.ThresholdIndexTime.Round(time.Microsecond), r.ThresholdAffineTime.Round(time.Microsecond),
				r.BatchTime.Round(time.Microsecond), r.SingleLoopTime.Round(time.Microsecond),
				r.QueryResultSize)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for _, r := range rows {
			printStreamStats(out, fmt.Sprintf("P=%d", r.Parallelism), r.Stream)
		}
		return nil

	case "planner":
		// The selectivity sweep behind the cost-based planner: a correlation
		// MET query from near-empty to full result sets on stock-data, every
		// execution method timed, the planner's choice recorded per step.
		ds, err := experiments.GenerateDatasets(scale)
		if err != nil {
			return err
		}
		for _, m := range []stats.Measure{stats.Correlation, stats.Covariance, stats.Jaccard} {
			rows, err := experiments.PlannerSweep(ds.Stock, m, 6, scale.Seed, nil)
			if err != nil {
				return err
			}
			w := newTable(out)
			fmt.Fprintln(w, "measure\ttau\tresult size\tselectivity\test rows\tcandidates\tWN\tWA\tSCAPE\tAUTO\tauto choice")
			for _, r := range rows {
				fmt.Fprintf(w, "%v\t%.2f\t%d\t%.1f%%\t%d\t%d\t%v\t%v\t%v\t%v\t%s\n",
					r.Measure, r.Tau, r.ResultSize, r.SelectivityPct, r.EstimatedRows, r.Candidates,
					r.NaiveTime.Round(time.Microsecond), r.AffineTime.Round(time.Microsecond),
					r.IndexTime.Round(time.Microsecond), r.AutoTime.Round(time.Microsecond),
					r.AutoChoice)
			}
			if err := w.Flush(); err != nil {
				return err
			}
		}
		return nil

	case "measures":
		// The new distance measures (registered declaratively in
		// internal/measure) under every execution method on both datasets:
		// naive vs affine vs SCAPE latency with the planner's choice per row.
		rows, err := experiments.MeasureSweeps(scale, 6)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\tmeasure\tquery\tresult size\tWN\tWA\tSCAPE\tAUTO\tauto choice")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%s\t%d\t%v\t%v\t%v\t%v\t%s\n",
				r.Dataset, r.Measure, r.Query, r.ResultSize,
				r.NaiveTime.Round(time.Microsecond), r.AffineTime.Round(time.Microsecond),
				r.IndexTime.Round(time.Microsecond), r.AutoTime.Round(time.Microsecond),
				r.AutoChoice)
		}
		return w.Flush()

	case "topk":
		// Top-k (MEK) queries under every execution method, k sweeping three
		// orders of magnitude: the "examined" column counts the index entries
		// the SCAPE best-first traversal evaluated against the pair count a
		// full sweep touches.
		rows, err := experiments.TopKSweeps(scale, 6, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\tmeasure\tk\tdir\tresult\texamined\tnaive pairs\tWN\tWA\tSCAPE\tAUTO\tauto choice")
		for _, r := range rows {
			dir := "largest"
			if !r.Largest {
				dir = "smallest"
			}
			fmt.Fprintf(w, "%s\t%v\t%d\t%s\t%d\t%d\t%d\t%v\t%v\t%v\t%v\t%s\n",
				r.Dataset, r.Measure, r.K, dir, r.ResultSize, r.Examined, r.NaivePairs,
				r.NaiveTime.Round(time.Microsecond), r.AffineTime.Round(time.Microsecond),
				r.IndexTime.Round(time.Microsecond), r.AutoTime.Round(time.Microsecond),
				r.AutoChoice)
		}
		return w.Flush()

	case "advance":
		// Incremental SCAPE maintenance: end-to-end Advance throughput under
		// the maintenance policies with latency and allocation counts.
		sensor, err := experiments.GenerateSensorOnly(scale)
		if err != nil {
			return err
		}
		modes, err := experiments.AdvanceThroughput(sensor, 6, scale.Seed, 8, 8, 0)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "policy\tappends/s\tmin\tmedian\tp95\tmax\tallocs/epoch\tKB/epoch\tcold rebuild\tspeedup")
		for _, r := range modes {
			fmt.Fprintf(w, "%s\t%.0f\t%v\t%v\t%v\t%v\t%.0f\t%.0f\t%v\t%.2fx\n",
				r.Mode, r.AppendsPerSec,
				r.MinLatency.Round(time.Microsecond), r.MedianLatency.Round(time.Microsecond),
				r.P95Latency.Round(time.Microsecond), r.MaxLatency.Round(time.Microsecond),
				r.AllocsPerEpoch, r.BytesPerEpoch/1024,
				r.ColdRebuild.Round(time.Microsecond), r.RebuildSpeedup)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for _, r := range modes {
			printStreamStats(out, r.Mode, r.Stats)
		}
		return nil

	case "sketch":
		// The naive sweep's filter-and-refine stage vs the raw-series scan on
		// the blocked kernels: interval predicates placed at quantiles of each
		// measure's value distribution, sweeping sketch width d and target
		// selectivity.  "kernels" is the raw-series W_N scan, "column" the
		// engine's naive sweep with the slid pair-moment column as its only
		// bound provider, "sketch+column" the same sweep with the DFT sketch
		// in front; "ambiguous" is the fraction of pairs each provider could
		// not classify definitively.  "speedup" is kernels over sketch+column,
		// "sketch gain" column over sketch+column — what the sketch tier buys
		// once the column exists.  Results are asserted byte-identical before
		// timing.
		rows, err := experiments.SketchExperiment(scale, 3)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "dataset\tmeasure\td\tsel\trows\tpairs\tambiguous sketch\tcolumn\tkernels\tcolumn\tsketch+column\tspeedup\tsketch gain")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%d\t%.2f\t%d\t%d\t%.1f%%\t%.2f%%\t%v\t%v\t%v\t%.2fx\t%.2fx\n",
				r.Dataset, r.Measure, r.Coefficients, r.TargetSel, r.Rows, r.Pairs,
				100*r.AmbiguousFrac, 100*r.ColumnAmbiguousFrac, r.ExactTime.Round(time.Microsecond),
				r.ColumnTime.Round(time.Microsecond), r.SketchTime.Round(time.Microsecond), r.Speedup, r.SketchGain)
		}
		return w.Flush()

	case "shard":
		// The scatter-gather coordinator vs the single engine: S sweeping the
		// shard count on interval and top-k queries after a zipfian update
		// stream.  "critical" is the slowest shard's executor time — the wall
		// time a multi-core box would see; "examined" lists the per-shard
		// index entries the top-k merge evaluated against the single engine's
		// count (the global v_k broadcast keeps the total within 2×).
		rows, err := experiments.ShardScaling(scale, 6, nil)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "query\tmeasure\tS\tresult\ttime\tsingle\tspeedup\tcritical\tcrit speedup\trows/shard\texamined/shard\texamined total\tsingle examined")
		for _, r := range rows {
			examined, total, single := "-", "-", "-"
			critical, critSpeedup := "-", "-"
			if r.Query == "topk" {
				examined = intList(r.ExaminedPerShard)
				total = strconv.Itoa(r.ExaminedTotal)
				single = strconv.Itoa(r.ExaminedSingle)
			} else {
				critical = r.CriticalPath.Round(time.Microsecond).String()
				critSpeedup = fmt.Sprintf("%.2fx", r.CriticalSpeedup)
			}
			fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%v\t%v\t%.2fx\t%s\t%s\t%s\t%s\t%s\t%s\n",
				r.Query, r.Measure, r.Shards, r.ResultSize,
				r.Time.Round(time.Microsecond), r.SingleTime.Round(time.Microsecond), r.Speedup,
				critical, critSpeedup,
				intList(r.ShardRows), examined, total, single)
		}
		return w.Flush()

	case "cache":
		// The epoch-aware result cache under the zipfian update stream: every
		// query classified by the tier that served it (miss, exact hit,
		// containment, delta repair) with per-tier latency percentiles against
		// the cache-off twin's re-execution time, then the hit-rate sweep over
		// the query popularity skew.  Every cached answer is asserted
		// byte-identical to the twin's before timing.
		rows, err := experiments.CacheLatency(scale, 6)
		if err != nil {
			return err
		}
		w := newTable(out)
		fmt.Fprintln(w, "query\ttier\tsamples\tp50\tp95\tcold p50\tspeedup\trepaired pairs")
		for _, r := range rows {
			repaired := "-"
			if r.Tier == "repaired" {
				repaired = strconv.Itoa(r.RepairedPairs)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%v\t%.1fx\t%s\n",
				r.Query, r.Tier, r.Samples,
				r.P50.Round(time.Nanosecond), r.P95.Round(time.Nanosecond),
				r.ColdP50.Round(time.Microsecond), r.Speedup, repaired)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		skewRows, err := experiments.CacheHitRateSweep(scale, 6, nil, 0)
		if err != nil {
			return err
		}
		w = newTable(out)
		fmt.Fprintln(w, "skew\tqueries\texact\tcontained\trepaired\tmisses\thit rate\tmean stale")
		for _, r := range skewRows {
			fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\n",
				r.Skew, r.Queries, r.ExactHits, r.ContainedHits, r.RepairHits, r.Misses,
				100*r.HitRate, 100*r.StaleFraction)
		}
		return w.Flush()

	default:
		return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experimentOrder, ", "))
	}
}

// printStreamStats renders one engine's incremental-maintenance counters.
func printStreamStats(out io.Writer, label string, ss core.StreamStats) {
	fmt.Fprintf(out, "%s: %d advances (%d delta-updated, %d rebuilt), stores %d shared / %d re-derived / %d rebuilt, entries -%d/+%d, pool hit rate %.0f%%, last stale %.2f\n",
		label, ss.Advances, ss.IndexUpdates, ss.IndexRebuilds,
		ss.StoresShared, ss.StoresCloned, ss.StoresRebuilt,
		ss.EntriesDeleted, ss.EntriesInserted, 100*ss.PoolHitRate(), ss.LastStaleFraction)
}

// intList renders a per-shard int slice compactly ("3+5+4").
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, "+")
}

func newTable(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}
