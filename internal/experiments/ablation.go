package experiments

import (
	"sort"
	"time"

	"affinity/internal/cluster"
	"affinity/internal/interval"
	"affinity/internal/scape"
	"affinity/internal/stats"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// This file contains the ablation experiments called out in DESIGN.md: they
// are not figures of the paper but isolate the design choices the paper
// credits for its performance.

// PinvCacheRow reports the SYMEX vs SYMEX+ ablation (the paper claims a
// 3.5–4x factor from caching the pseudo-inverse).
type PinvCacheRow struct {
	Dataset          string
	Relationships    int
	WithoutCacheTime time.Duration
	WithCacheTime    time.Duration
	Factor           float64
	PinvWithoutCache int
	PinvWithCache    int
}

// AblationPinvCache measures the pseudo-inverse cache ablation on one
// dataset over the full relationship set.
func AblationPinvCache(name string, d *timeseries.DataMatrix, k int, seed int64) (PinvCacheRow, error) {
	if k <= 0 {
		k = 6
	}
	clustering, err := cluster.Run(d, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return PinvCacheRow{}, err
	}
	var plain, cached *symex.Result
	plainTime, err := timeOnce(func() error {
		var innerErr error
		plain, innerErr = symex.Compute(d, symex.Options{Clustering: clustering, CachePseudoInverse: false})
		return innerErr
	})
	if err != nil {
		return PinvCacheRow{}, err
	}
	cachedTime, err := timeOnce(func() error {
		var innerErr error
		cached, innerErr = symex.Compute(d, symex.Options{Clustering: clustering, CachePseudoInverse: true})
		return innerErr
	})
	if err != nil {
		return PinvCacheRow{}, err
	}
	return PinvCacheRow{
		Dataset:          name,
		Relationships:    plain.Stats.NumRelationships,
		WithoutCacheTime: plainTime,
		WithCacheTime:    cachedTime,
		Factor:           speedup(plainTime, cachedTime),
		PinvWithoutCache: plain.Stats.PseudoInverseComputations,
		PinvWithCache:    cached.Stats.PseudoInverseComputations,
	}, nil
}

// PruningRow reports the D-measure pruning ablation of the SCAPE index
// (Section 5.3): correlation MET queries with and without the U^min/U^max
// pruning.
type PruningRow struct {
	Threshold        float64
	ResultSize       int
	WithPruning      time.Duration
	WithoutPruning   time.Duration
	PruningSpeedup   float64
	ResultsIdentical bool
}

// AblationScapePruning measures the pruning ablation on one dataset.
func AblationScapePruning(d *timeseries.DataMatrix, k int, seed int64, thresholds []float64) ([]PruningRow, error) {
	if k <= 0 {
		k = 6
	}
	clustering, err := cluster.Run(d, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	rel, err := symex.Compute(d, symex.Options{Clustering: clustering, CachePseudoInverse: true})
	if err != nil {
		return nil, err
	}
	pruned, err := scape.Build(d, rel, scape.Options{})
	if err != nil {
		return nil, err
	}
	unpruned, err := scape.Build(d, rel, scape.Options{DisableDerivedPruning: true})
	if err != nil {
		return nil, err
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.5, 0.8, 0.9, 0.95, 0.99}
	}
	var rows []PruningRow
	for _, tau := range thresholds {
		var prunedResult, unprunedResult []timeseries.Pair
		withTime, err := timeRepeated(queryTimingFloor, queryTimingReps, func() error {
			var innerErr error
			prunedResult, innerErr = pruned.PairInterval(stats.Correlation, interval.GreaterThan(tau))
			return innerErr
		})
		if err != nil {
			return nil, err
		}
		withoutTime, err := timeRepeated(queryTimingFloor, queryTimingReps, func() error {
			var innerErr error
			unprunedResult, innerErr = unpruned.PairInterval(stats.Correlation, interval.GreaterThan(tau))
			return innerErr
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, PruningRow{
			Threshold:        tau,
			ResultSize:       len(prunedResult),
			WithPruning:      withTime,
			WithoutPruning:   withoutTime,
			PruningSpeedup:   speedup(withoutTime, withTime),
			ResultsIdentical: samePairs(prunedResult, unprunedResult),
		})
	}
	return rows, nil
}

func samePairs(a, b []timeseries.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p timeseries.Pair) int64 { return int64(p.U)<<32 | int64(p.V) }
	ka := make([]int64, len(a))
	kb := make([]int64, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Slice(ka, func(i, j int) bool { return ka[i] < ka[j] })
	sort.Slice(kb, func(i, j int) bool { return kb[i] < kb[j] })
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
