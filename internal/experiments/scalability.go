package experiments

import (
	"fmt"
	"time"

	"affinity/internal/cluster"
	"affinity/internal/measure"
	"affinity/internal/scape"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// SymexRow is one point of Fig. 13: the time to compute a given number of
// affine relationships with SYMEX and with SYMEX+.
type SymexRow struct {
	Dataset       string
	Relationships int
	SymexTime     time.Duration
	SymexPlusTime time.Duration
	CacheSpeedup  float64
}

// SymexScalability reproduces Fig. 13 for one dataset: the number of affine
// relationships is swept and the wall-clock time of both SYMEX variants is
// recorded.  The clustering is computed once and shared so the comparison
// isolates the relationship-fitting cost.
func SymexScalability(name string, d *timeseries.DataMatrix, relationshipCounts []int, k int, seed int64) ([]SymexRow, error) {
	if k <= 0 {
		k = 6
	}
	if len(relationshipCounts) == 0 {
		relationshipCounts = defaultRelationshipSweep(d.NumPairs())
	}
	clustering, err := cluster.Run(d, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: clustering: %w", err)
	}

	var rows []SymexRow
	for _, count := range relationshipCounts {
		if count <= 0 {
			continue
		}
		if count > d.NumPairs() {
			count = d.NumPairs()
		}
		plainTime, err := timeOnce(func() error {
			_, err := symex.Compute(d, symex.Options{
				Clustering:         clustering,
				CachePseudoInverse: false,
				MaxRelationships:   count,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		cachedTime, err := timeOnce(func() error {
			_, err := symex.Compute(d, symex.Options{
				Clustering:         clustering,
				CachePseudoInverse: true,
				MaxRelationships:   count,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SymexRow{
			Dataset:       name,
			Relationships: count,
			SymexTime:     plainTime,
			SymexPlusTime: cachedTime,
			CacheSpeedup:  speedup(plainTime, cachedTime),
		})
	}
	return rows, nil
}

// Fig13 reproduces Fig. 13 on both datasets.
func Fig13(s Scale, relationshipCounts []int) ([]SymexRow, error) {
	ds, err := GenerateDatasets(s)
	if err != nil {
		return nil, err
	}
	sensorRows, err := SymexScalability("sensor-data", ds.Sensor, relationshipCounts, 6, s.Seed)
	if err != nil {
		return nil, err
	}
	stockRows, err := SymexScalability("stock-data", ds.Stock, relationshipCounts, 6, s.Seed)
	if err != nil {
		return nil, err
	}
	return append(sensorRows, stockRows...), nil
}

// IndexConstructionRow is one point of Fig. 14: the time to build the SCAPE
// index over a given number of affine relationships for a T-measure
// (covariance) and an L-measure (mean).
type IndexConstructionRow struct {
	Relationships  int
	CovarianceTime time.Duration
	MeanTime       time.Duration
}

// IndexConstruction reproduces Fig. 14 on one dataset.
func IndexConstruction(d *timeseries.DataMatrix, relationshipCounts []int, k int, seed int64) ([]IndexConstructionRow, error) {
	if k <= 0 {
		k = 6
	}
	if len(relationshipCounts) == 0 {
		relationshipCounts = defaultRelationshipSweep(d.NumPairs())
	}
	clustering, err := cluster.Run(d, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	var rows []IndexConstructionRow
	for _, count := range relationshipCounts {
		if count <= 0 {
			continue
		}
		if count > d.NumPairs() {
			count = d.NumPairs()
		}
		rel, err := symex.Compute(d, symex.Options{
			Clustering:         clustering,
			CachePseudoInverse: true,
			MaxRelationships:   count,
		})
		if err != nil {
			return nil, err
		}
		covTime, err := timeOnce(func() error {
			_, err := scape.Build(d, rel, scape.Options{
				PairMeasures:     []measure.Measure{measure.Covariance},
				DerivedMeasures:  []measure.Measure{},
				LocationMeasures: []measure.Measure{},
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		meanTime, err := timeOnce(func() error {
			_, err := scape.Build(d, rel, scape.Options{
				PairMeasures:     []measure.Measure{},
				DerivedMeasures:  []measure.Measure{},
				LocationMeasures: []measure.Measure{measure.Mean},
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndexConstructionRow{
			Relationships:  count,
			CovarianceTime: covTime,
			MeanTime:       meanTime,
		})
	}
	return rows, nil
}

// Fig14 reproduces Fig. 14 (index construction scalability on sensor-data).
func Fig14(s Scale, relationshipCounts []int) ([]IndexConstructionRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}
	return IndexConstruction(sensor, relationshipCounts, 6, s.Seed)
}

// defaultRelationshipSweep produces five points from 20% to 100% of the
// maximum number of relationships, mirroring the x-axes of Figs. 13–14.
func defaultRelationshipSweep(maxRelationships int) []int {
	if maxRelationships <= 0 {
		return nil
	}
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	out := make([]int, 0, len(fractions))
	for _, f := range fractions {
		count := int(f * float64(maxRelationships))
		if count < 1 {
			count = 1
		}
		out = append(out, count)
	}
	return out
}
