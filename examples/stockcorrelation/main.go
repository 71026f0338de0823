// Stock correlation: the paper's motivating Problem 1.
//
// "Given the intra-day stock quotes of n stocks obtained at a sampling
// interval Δt, return the correlation coefficients of the n(n−1)/2 pairs of
// stocks on a given day" — plus the threshold variant a trader actually asks
// for ("which pairs are correlated above τ?").
//
// The example also reconstructs the paper's introductory INTC/AMD/MSFT
// illustration: three co-moving price series, one approximate affine
// relationship between two of their pairs, and the correlation of one pair
// computed from the correlation of the other without touching the raw
// series.
//
// Run with:
//
//	go run ./examples/stockcorrelation
package main

import (
	"fmt"
	"log"
	"time"

	"affinity"
)

func main() {
	// A synthetic trading day: 390 one-minute quotes for 150 stocks in 8
	// sectors (the real S&P 500 constituents are not redistributable; the
	// factor model produces the same co-movement structure).
	data, err := affinity.GenerateStockData(affinity.StockDataConfig{
		NumSeries:  150,
		NumSamples: 390,
		NumSectors: 8,
		Seed:       2013,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("intra-day quotes: %d stocks x %d minutes (%d pairs)\n\n",
		data.NumSeries(), data.NumSamples(), data.NumPairs())

	buildStart := time.Now()
	engine, err := affinity.New(data, affinity.Options{Clusters: 8, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine built in %v (%d affine relationships, %d pivot pairs)\n\n",
		time.Since(buildStart).Round(time.Millisecond),
		engine.Info().NumRelationships, engine.Info().NumPivots)

	// Problem 1: the full correlation matrix.  The affine method computes it
	// from the pivot-pair covariances plus one O(1) propagation per pair.
	mecStart := time.Now()
	corr, err := correlationMatrix(engine, data.IDs(), affinity.Affine)
	if err != nil {
		log.Fatal(err)
	}
	affineTime := time.Since(mecStart)

	naiveStart := time.Now()
	if _, err := correlationMatrix(engine, data.IDs(), affinity.Naive); err != nil {
		log.Fatal(err)
	}
	naiveTime := time.Since(naiveStart)
	fmt.Printf("correlation matrix of all %d pairs: affine %v vs naive %v (%.1fx)\n\n",
		data.NumPairs(), affineTime.Round(time.Millisecond), naiveTime.Round(time.Millisecond),
		float64(naiveTime)/float64(affineTime))

	// The trader's threshold query: pairs correlated above 0.95, from the
	// SCAPE index.
	queryStart := time.Now()
	hot, err := correlatedPairs(engine, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pairs with rho > 0.95: %d (SCAPE query took %v); first five:\n",
		len(hot), time.Since(queryStart).Round(time.Microsecond))
	for i, p := range hot {
		if i == 5 {
			break
		}
		rho := corr[p.U][p.V] // the matrix is over every series, in id order
		fmt.Printf("  %-22s %-22s rho=%.4f\n", data.Name(p.U), data.Name(p.V), rho)
	}

	// The paper's introductory example with three named stocks.
	introExample()
}

// introExample mirrors Fig. 1 / Eq. (1)–(3) of the paper with three
// co-moving series standing in for INTC, AMD and MSFT.
func introExample() {
	fmt.Println("\n--- intro example: three stocks, one affine relationship ---")
	day, err := affinity.GenerateStockData(affinity.StockDataConfig{
		NumSeries:  3,
		NumSamples: 390,
		NumSectors: 1, // one sector: the three series co-move like INTC/AMD/MSFT
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"INTC", "AMD", "MSFT"}

	engine, err := affinity.New(day, affinity.Options{Clusters: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// rho(AMD, MSFT) computed two ways: from the raw series and through the
	// affine relationship with the pivot pair.
	pair := []affinity.SeriesID{1, 2}
	exact, err := correlationMatrix(engine, pair, affinity.Naive)
	if err != nil {
		log.Fatal(err)
	}
	viaAffine, err := correlationMatrix(engine, pair, affinity.Affine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rho(%s, %s) from raw series:          %.6f\n", names[1], names[2], exact[0][1])
	fmt.Printf("rho(%s, %s) via affine relationship:  %.6f\n", names[1], names[2], viaAffine[0][1])
	fmt.Printf("absolute error: %.2e\n", abs(exact[0][1]-viaAffine[0][1]))
}

// correlationMatrix answers Problem 1 over the given series: a MEC query, the
// correlation of every pair of ids, as a batch of one.
func correlationMatrix(engine *affinity.Engine, ids []affinity.SeriesID, method affinity.Method) ([][]float64, error) {
	out, err := engine.Batch([]affinity.QuerySpec{affinity.ComputeSpec(affinity.Correlation, ids)}, method)
	if err != nil {
		return nil, err
	}
	return out[0].Matrix, nil
}

// correlatedPairs returns every pair whose correlation exceeds tau, answered
// from the SCAPE index.
func correlatedPairs(engine *affinity.Engine, tau float64) ([]affinity.Pair, error) {
	res, err := engine.Interval(affinity.Correlation, affinity.GreaterThan(tau), affinity.Index)
	return res.Pairs, err
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
