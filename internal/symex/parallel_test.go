package symex

import (
	"errors"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/timeseries"
)

func TestParallelMatchesSequential(t *testing.T) {
	d := correlatedData(t, 20, 3, 18, 60, 0.02)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		parallel, err := Compute(d, Options{
			Clustering:         clustering,
			CachePseudoInverse: true,
			Parallelism:        workers,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if parallel.Len() != sequential.Len() {
			t.Fatalf("parallelism %d: %d relationships, want %d",
				workers, parallel.Len(), sequential.Len())
		}
		if parallel.Stats != sequential.Stats {
			t.Fatalf("parallelism %d: stats %+v differ from sequential %+v",
				workers, parallel.Stats, sequential.Stats)
		}
		for e, seq := range relMap(sequential) {
			par, ok := relMap(parallel)[e]
			if !ok {
				t.Fatalf("parallelism %d: pair %v missing", workers, e)
			}
			if par.Pivot != seq.Pivot || par.Flipped != seq.Flipped {
				t.Fatalf("parallelism %d: pair %v bookkeeping differs", workers, e)
			}
			if par.Transform != seq.Transform {
				t.Fatalf("parallelism %d: pair %v transform differs", workers, e)
			}
		}
	}
	// Parallelism larger than the work count must also be fine.
	tiny := correlatedData(t, 21, 1, 3, 30, 0.02)
	if _, err := Compute(tiny, Options{
		Cluster:            cluster.Config{K: 1, Seed: 1},
		CachePseudoInverse: true,
		Parallelism:        64,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWithoutCache(t *testing.T) {
	d := correlatedData(t, 22, 2, 10, 40, 0.02)
	clustering, err := cluster.Run(d, cluster.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Compute(d, Options{Clustering: clustering})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compute(d, Options{Clustering: clustering, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.PseudoInverseComputations != par.Stats.PseudoInverseComputations {
		t.Fatalf("pseudo-inverse counts differ: %d vs %d",
			seq.Stats.PseudoInverseComputations, par.Stats.PseudoInverseComputations)
	}
	if par.Stats.PseudoInverseCacheHits != 0 {
		t.Fatal("no cache hits expected without the cache")
	}
}

func TestComputeErrorsSurfaceFromParallelWorkers(t *testing.T) {
	// A clustering whose assignment references an out-of-range cluster makes
	// every fit fail; the error must surface rather than deadlock.
	d := correlatedData(t, 24, 2, 8, 30, 0.02)
	clustering, err := cluster.Run(d, cluster.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the centers so pivot matrices cannot be built.
	broken := &cluster.Result{
		Centers:    [][]float64{{1, 2, 3}}, // wrong length and too few centers
		Assignment: clustering.Assignment,
	}
	_, err = Compute(d, Options{Clustering: broken, CachePseudoInverse: true, Parallelism: 4})
	if err == nil {
		t.Fatal("broken clustering should produce an error")
	}
	var zero timeseries.Pair
	_ = zero
	if errors.Is(err, ErrTooFewSeries) {
		t.Fatal("unexpected error classification")
	}
}
