// Quickstart: build an AFFINITY engine over a small synthetic dataset and run
// one query of each kind (MEC, MET, MER).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"affinity"
)

func main() {
	// 1. Get a dataset.  Any collection of equally long float64 series works;
	// here we synthesize 60 sensor-like series with 240 samples each.
	data, err := affinity.GenerateSensorData(affinity.SensorDataConfig{
		NumSeries:  60,
		NumSamples: 240,
		NumGroups:  6,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d series x %d samples (%d sequence pairs)\n",
		data.NumSeries(), data.NumSamples(), data.NumPairs())

	// 2. Build the engine: AFCLST clustering, SYMEX+ affine relationships and
	// the SCAPE index.
	engine, err := affinity.New(data, affinity.Options{Clusters: 6, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	info := engine.Info()
	fmt.Printf("built: %d pivot pairs, %d affine relationships in %v\n\n",
		info.NumPivots, info.NumRelationships, info.TotalDuration)

	// 3. MEC query: the mean of the first five series, computed through
	// affine relationships (W_A).
	ids := []affinity.SeriesID{0, 1, 2, 3, 4}
	mec, err := engine.Batch([]affinity.QuerySpec{affinity.ComputeSpec(affinity.Mean, ids)}, affinity.Affine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MEC: mean of the first five series (affine method):")
	for i, id := range mec[0].Series {
		fmt.Printf("  %-22s %8.3f\n", data.Name(id), mec[0].Values[i])
	}

	// 4. MET query: all pairs with correlation above 0.95, answered by the
	// SCAPE index.
	met, err := engine.Interval(affinity.Correlation, affinity.GreaterThan(0.95), affinity.Index)
	if err != nil {
		log.Fatal(err)
	}
	pairs := met.Pairs
	fmt.Printf("\nMET: %d pairs with correlation > 0.95 (SCAPE index); first five:\n", len(pairs))
	for i, p := range pairs {
		if i == 5 {
			break
		}
		// A pair's value is a MEC query over its two series.
		out, err := engine.Batch([]affinity.QuerySpec{affinity.ComputeSpec(affinity.Correlation, []affinity.SeriesID{p.U, p.V})}, affinity.Affine)
		if err != nil {
			log.Fatal(err)
		}
		rho := out[0].Matrix[0][1]
		fmt.Printf("  %-22s %-22s rho=%.4f\n", data.Name(p.U), data.Name(p.V), rho)
	}

	// 5. MER query: all pairs whose covariance lies in the closed interval
	// [0.5, 2.0], with the naive method for comparison.
	res, err := engine.Interval(affinity.Covariance, affinity.Between(0.5, 2.0), affinity.Index)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := engine.Interval(affinity.Covariance, affinity.Between(0.5, 2.0), affinity.Naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMER: covariance in [0.5, 2.0]: %d pairs via SCAPE, %d via the naive method\n",
		len(res.Pairs), len(naive.Pairs))
}
