// Sensor threshold queries: monitor a fleet of environmental sensors and
// answer measure threshold (MET) and measure range (MER) queries — interval
// predicates, half-bounded and bounded — over several statistical measures
// from one SCAPE index, comparing against the naive method.
//
// Run with:
//
//	go run ./examples/sensorthreshold
package main

import (
	"fmt"
	"log"
	"time"

	"affinity"
)

func main() {
	// One day of readings from 134 sensors (downscaled from the paper's 670
	// daily series to keep the example snappy).
	data, err := affinity.GenerateSensorData(affinity.SensorDataConfig{
		NumSeries:  134,
		NumSamples: 360,
		NumGroups:  8,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := affinity.New(data, affinity.Options{Clusters: 6, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d affine relationships from %d sensors\n\n",
		engine.Info().NumRelationships, data.NumSeries())

	// MET on a D-measure: strongly correlated sensor pairs (e.g. redundant or
	// co-located sensors).
	compare(engine, "correlated pairs (rho > 0.98)", func(method affinity.Method) (int, error) {
		res, err := engine.Interval(affinity.Correlation, affinity.GreaterThan(0.98), method)
		return res.Size(), err
	})

	// MET on a T-measure: sensor pairs whose covariance exceeds a bound
	// (jointly volatile sensors).
	compare(engine, "high-covariance pairs (cov > 5)", func(method affinity.Method) (int, error) {
		res, err := engine.Interval(affinity.Covariance, affinity.GreaterThan(5), method)
		return res.Size(), err
	})

	// MER on a D-measure: moderately correlated pairs.
	compare(engine, "moderately correlated pairs (0.3 <= rho <= 0.7)", func(method affinity.Method) (int, error) {
		res, err := engine.Interval(affinity.Correlation, affinity.Between(0.3, 0.7), method)
		return res.Size(), err
	})

	// MET on an L-measure: sensors whose median reading is negative
	// (mis-calibrated or offline sensors).
	compare(engine, "sensors with median < 0", func(method affinity.Method) (int, error) {
		res, err := engine.Interval(affinity.Median, affinity.LessThan(0), method)
		return res.Size(), err
	})
}

// compare runs the same query with the SCAPE index and the naive method and
// prints result sizes and timings.
func compare(engine *affinity.Engine, label string, query func(affinity.Method) (int, error)) {
	indexStart := time.Now()
	indexSize, err := query(affinity.Index)
	if err != nil {
		log.Fatal(err)
	}
	indexTime := time.Since(indexStart)

	naiveStart := time.Now()
	naiveSize, err := query(affinity.Naive)
	if err != nil {
		log.Fatal(err)
	}
	naiveTime := time.Since(naiveStart)

	speedup := float64(naiveTime) / float64(indexTime)
	fmt.Printf("%-50s  SCAPE: %5d results in %8v | naive: %5d results in %8v | %6.1fx faster\n",
		label, indexSize, indexTime.Round(time.Microsecond),
		naiveSize, naiveTime.Round(time.Microsecond), speedup)
}
