// Online queries: simulate the online environment of Section 6.2 — a stream
// of measure computation (MEC) queries whose measure is picked uniformly at
// random and whose series follow a power-law popularity — and compare the
// naive method (W_N), the affine method (W_A, including its one-time SYMEX+
// cost exactly as the paper does) and the cost-based planner (Auto), which
// routes each query to the method it prices cheapest.
//
// The example ends with an EXPLAIN session: the same threshold query at
// several selectivities, showing the planner's per-method cost estimates,
// its choice, and the observed result sizes.
//
// Run with:
//
//	go run ./examples/onlinequeries
package main

import (
	"fmt"
	"log"
	"time"

	"affinity"
	"affinity/internal/stats"
	"affinity/internal/workload"
)

func main() {
	data, err := affinity.GenerateStockData(affinity.StockDataConfig{
		NumSeries:  120,
		NumSamples: 390,
		NumSectors: 10,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}

	gen, err := workload.NewGenerator(workload.Config{
		NumSeries:      data.NumSeries(),
		SeriesPerQuery: 10,
		Seed:           99,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("online MEC workload over %d stocks; |psi| = 10 series per query\n", data.NumSeries())
	fmt.Println("queries   WN total      WA total (incl. build)   AUTO total (incl. build)   speedup WN/AUTO")

	for _, count := range []int{500, 1000, 2000, 4000} {
		queries := gen.Batch(count)

		// W_N: build nothing, answer every query from the raw series.
		naiveEngine, err := affinity.New(data, affinity.Options{Clusters: 6, Seed: 1, SkipIndex: true})
		if err != nil {
			log.Fatal(err)
		}
		naiveStart := time.Now()
		if err := runBatch(naiveEngine, queries, affinity.Naive); err != nil {
			log.Fatal(err)
		}
		naiveTotal := time.Since(naiveStart)

		// W_A and Auto: the build (AFCLST + SYMEX+) happens inside the timed
		// section, exactly like the paper's online comparison.
		affineTotal, err := timedRun(data, queries, affinity.Affine)
		if err != nil {
			log.Fatal(err)
		}
		autoTotal, err := timedRun(data, queries, affinity.Auto)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%7d   %-12v  %-24v  %-25v  %.1fx\n",
			count, naiveTotal.Round(time.Millisecond), affineTotal.Round(time.Millisecond),
			autoTotal.Round(time.Millisecond), float64(naiveTotal)/float64(autoTotal))
	}

	// EXPLAIN: one engine with the index, a correlation MET query swept from
	// highly selective to nearly unselective.
	eng, err := affinity.New(data, affinity.Options{Clusters: 6, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEXPLAIN correlation threshold sweep:")
	for _, tau := range []float64{0.95, 0.8, 0.5, 0.0} {
		res, plan, err := eng.Explain(affinity.IntervalSpec(affinity.Correlation, affinity.GreaterThan(tau)), affinity.Auto)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tau=%.2f  %v  actual=%d rows in %v\n",
			tau, plan, res.Size(), plan.Duration.Round(time.Microsecond))
	}

	// Top-k (MEK): the same engine answers "the k most correlated pairs"
	// as a best-first SCAPE traversal — no threshold to guess; the running
	// interval [v_k, best] is discovered adaptively.
	fmt.Println("\nEXPLAIN top-k most correlated pairs:")
	for _, k := range []int{1, 10, 100} {
		res, plan, err := eng.Explain(affinity.TopKSpec(affinity.Correlation, k, true), affinity.Auto)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%-3d  %v  in %v\n", k, plan, plan.Duration.Round(time.Microsecond))
		if k == 10 {
			for i, pair := range res.Pairs[:3] {
				fmt.Printf("         #%d %s -- %s  corr=%.4f\n",
					i+1, data.Name(pair.U), data.Name(pair.V), res.Values[i])
			}
		}
	}
}

// timedRun builds a fresh engine and answers the whole workload with the
// given method, returning the total wall time including the build.
func timedRun(data *affinity.Dataset, queries []workload.MECQuery, method affinity.Method) (time.Duration, error) {
	start := time.Now()
	eng, err := affinity.New(data, affinity.Options{Clusters: 6, Seed: 1, SkipIndex: true})
	if err != nil {
		return 0, err
	}
	if err := runBatch(eng, queries, method); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func runBatch(engine *affinity.Engine, queries []workload.MECQuery, method affinity.Method) error {
	for _, q := range queries {
		if q.Measure.Class() == stats.LocationClass {
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
