// Command affinity-bench regenerates the tables and figures of the paper's
// evaluation (Section 6) as text output.  Every experiment identifier maps to
// one driver in internal/experiments; EXPERIMENTS.md records the results.
// Numbers for the engine's extensions (parallelism, planner, shards, cache,
// sketch) come from the lifecycle benchmark in bench/, not from this command.
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
	"strings"
	"text/tabwriter"
	"time"

	"affinity/internal/experiments"
)

var experimentOrder = []string{
	"table3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "table4", "ablation-pinv",
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
		experiment = fs.String("experiment", "all", "experiment id: "+strings.Join(experimentOrder, ", ")+" or all")
		seriesDiv  = fs.Int("series-div", 16, "divide the paper's number of series by this factor")
		sampleDiv  = fs.Int("sample-div", 6, "divide the paper's samples per series by this factor")
		seed       = fs.Int64("seed", 42, "dataset and clustering seed")
		full       = fs.Bool("full", false, "run at the paper's full dataset scale (overrides the divisors; slow)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A divisor below 1 would fall through dataset.ScaleConfig's "> 1" checks
	// and silently generate the paper's full-scale datasets.
	if *seriesDiv < 1 {
		return fmt.Errorf("-series-div must be at least 1, got %d", *seriesDiv)
	}
	if *sampleDiv < 1 {
		return fmt.Errorf("-sample-div must be at least 1, got %d", *sampleDiv)
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
		if err := runExperiment(id, scale, out); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintf(out, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runExperiment(id string, scale experiments.Scale, out io.Writer) error {
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
		fmt.Fprintln(w, "relationships\tcovariance index build")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%v\n", r.Relationships, r.CovarianceTime.Round(time.Microsecond))
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

	default:
		return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experimentOrder, ", "))
	}
}

func newTable(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}
