package experiments

import (
	"time"

	"affinity/internal/cluster"
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
