package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// TestPooledScratchNeverBacksAnAnswer pins the ownership rule of the pooled
// scan and sweep scratch (par.Scratch): a query's answer is its own
// allocation, never a view of a buffer that goes back to the pool.  At one
// epoch of a cache-enabled engine it answers an index batch, an affine sweep
// batch and a naive sweep batch — whose classified items take the bounded
// path — and keeps the results and the cache's stored rows; then four
// goroutines run wider and narrower queries of the same kinds, which miss the
// cache and reuse every pooled buffer.  The kept results and the stored rows
// must still hold the bits they had.  Run with -race (CI does).
func TestPooledScratchNeverBacksAnAnswer(t *testing.T) {
	const workers, rounds = 4, 6
	for _, p := range determinismLevels {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			e := buildTestEngine(t, Config{Clusters: 4, Seed: 13, Parallelism: p,
				Cache: qcache.Options{Enabled: true, MaxBytes: 64 << 20}})
			quantile := quantiles(t, e, stats.Correlation, stats.Covariance, stats.EuclideanDistance, stats.Cosine)
			kinds := []struct {
				method   Method
				measures []stats.Measure
			}{
				{MethodIndex, []stats.Measure{stats.Correlation, stats.Covariance, stats.EuclideanDistance}},
				{MethodAffine, []stats.Measure{stats.Correlation, stats.Covariance, stats.EuclideanDistance}},
				{MethodNaive, []stats.Measure{stats.Cosine, stats.Correlation, stats.EuclideanDistance}},
			}
			// band is the query of measure m at offset w around its middle
			// 40 %: w < 0 narrows it, w > 0 widens it.
			band := func(m stats.Measure, w float64) plan.QuerySpec {
				return plan.Interval(m, interval.Between(quantile(m, 0.3-w), quantile(m, 0.7+w)))
			}
			specsOf := func(measures []stats.Measure, w float64) []plan.QuerySpec {
				specs := make([]plan.QuerySpec, len(measures))
				for i, m := range measures {
					specs[i] = band(m, w)
				}
				return specs
			}

			type kept struct {
				name       string
				key        qcache.Key
				got, want  []timeseries.Pair
				stored     qcache.Result
				storedCopy qcache.Result
			}
			var keep []kept
			before := e.StreamStats().MomentSweeps
			for _, kd := range kinds {
				res, err := runSpecs(e, specsOf(kd.measures, 0), kd.method)
				if err != nil {
					t.Fatalf("%v: %v", kd.method, err)
				}
				for i, m := range kd.measures {
					if len(res[i].Pairs) == 0 {
						t.Fatalf("%v/%v: empty answer, the band is too narrow to pin anything", kd.method, m)
					}
					key := qcache.IntervalKey(m, kd.method, band(m, 0).Interval)
					stored, _, ok := e.escapedState().cache.Lookup(key, e.Epoch())
					if !ok {
						t.Fatalf("%v/%v: the answer was not stored", kd.method, m)
					}
					keep = append(keep, kept{
						name:       fmt.Sprintf("%v/%v", kd.method, m),
						key:        key,
						got:        res[i].Pairs,
						want:       slices.Clone(res[i].Pairs),
						stored:     stored,
						storedCopy: qcache.Result{Pairs: slices.Clone(stored.Pairs), Values: slices.Clone(stored.Values)},
					})
				}
			}
			if e.StreamStats().MomentSweeps == before {
				t.Fatal("no naive item took the classified path")
			}

			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						w := 0.02*float64(g+1) + 0.003*float64(r)
						for _, kd := range kinds {
							for _, sign := range []float64{1, -1} {
								if _, err := runSpecs(e, specsOf(kd.measures, sign*w), kd.method); err != nil {
									errs <- err
									return
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			for _, k := range keep {
				if !slices.Equal(k.got, k.want) {
					t.Errorf("%s: a kept answer changed under later queries", k.name)
				}
				again, _, ok := e.escapedState().cache.Lookup(k.key, e.Epoch())
				if !ok {
					t.Fatalf("%s: the entry was evicted", k.name)
				}
				for _, rows := range []qcache.Result{k.stored, again} {
					if !slices.Equal(rows.Pairs, k.storedCopy.Pairs) || !sameBits(rows.Values, k.storedCopy.Values) {
						t.Errorf("%s: the cache's stored rows changed under later queries", k.name)
					}
				}
			}
		})
	}
}

// quantiles returns a lookup of the q-quantile of each measure's defined
// values over the pair universe at the engine's epoch.
func quantiles(t *testing.T, e *Engine, ms ...stats.Measure) func(m stats.Measure, q float64) float64 {
	t.Helper()
	sorted := make(map[stats.Measure][]float64, len(ms))
	for _, m := range ms {
		sw, err := e.PairwiseSweepNaive(m)
		if err != nil {
			t.Fatal(err)
		}
		vals := slices.DeleteFunc(slices.Clone(sw.Values), math.IsNaN)
		slices.Sort(vals)
		sorted[m] = vals
	}
	return func(m stats.Measure, q float64) float64 {
		vals := sorted[m]
		return vals[int(math.Round(max(0, min(1, q))*float64(len(vals)-1)))]
	}
}

// sameBits reports whether two value slices hold the same float bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
