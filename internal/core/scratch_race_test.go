package core

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
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
				Cache: qcache.Options{Enabled: true}})
			quantile := quantiles(t, e, measure.Correlation, measure.Covariance, measure.EuclideanDistance, measure.Cosine)
			kinds := []struct {
				method   Method
				measures []measure.Measure
			}{
				{MethodIndex, []measure.Measure{measure.Correlation, measure.Covariance, measure.EuclideanDistance}},
				{MethodAffine, []measure.Measure{measure.Correlation, measure.Covariance, measure.EuclideanDistance}},
				{MethodNaive, []measure.Measure{measure.Cosine, measure.Correlation, measure.EuclideanDistance}},
			}
			// band is the query of measure m at offset w around its middle
			// 40 %: w < 0 narrows it, w > 0 widens it.
			band := func(m measure.Measure, w float64) plan.QuerySpec {
				return plan.Interval(m, interval.Between(quantile(m, 0.3-w), quantile(m, 0.7+w)))
			}
			specsOf := func(measures []measure.Measure, w float64) []plan.QuerySpec {
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
func quantiles(t *testing.T, e *Engine, ms ...measure.Measure) func(m measure.Measure, q float64) float64 {
	t.Helper()
	sorted := make(map[measure.Measure][]float64, len(ms))
	for _, m := range ms {
		sw, err := pipelineSweep(e, m, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		vals := slices.DeleteFunc(sw, math.IsNaN)
		slices.Sort(vals)
		sorted[m] = vals
	}
	return func(m measure.Measure, q float64) float64 {
		vals := sorted[m]
		return vals[int(math.Round(max(0, min(1, q))*float64(len(vals)-1)))]
	}
}

// sameBits reports whether two value slices hold the same float bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestConcurrentAdvancesKeepTheirScratch: two engines at Parallelism 2 that
// advance at once borrow fit, panel, cross and node scratch side by side, a
// collection after every Advance.  A Scratch keeps what it lends, so over all
// the rounds each pool makes no more buffers than can be out at once — one
// per worker, or one per engine for a pass that takes one — and the Advances
// after the first find every buffer they need kept.  A buffer made is an
// allocation inside a Scratch's Get, charged to the pool its caller names on
// the memory profile's stack.  The test runs in a child process of its own,
// so the pools start empty.
func TestConcurrentAdvancesKeepTheirScratch(t *testing.T) {
	if os.Getenv("AFFINITY_SCRATCH_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConcurrentAdvancesKeepTheirScratch$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "AFFINITY_SCRATCH_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const parallelism, rounds = 2, 4
	engines := make([]*Engine, 2)
	fixtures := make([]*streamFixture, 2)
	for i := range engines {
		fixtures[i] = makeStreamFixture(t, 48, 96, rounds, int64(7+i))
		e, err := Build(fixtures[i].window, Config{Clusters: 4, Seed: 3, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	advance := func(tick int) {
		var wg sync.WaitGroup
		errs := make([]error, len(engines))
		for i, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[i] = e.Append(fixtures[i].ticks[tick]); errs[i] != nil {
					return
				}
				var info AdvanceInfo
				if info, errs[i] = e.Advance(); errs[i] == nil && !info.FullRefit {
					errs[i] = fmt.Errorf("engine %d refit %d relationships, want a full fit", i, info.RefitRelationships)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pools := map[string]string{
		"affinity/internal/symex.(*fitter).fitSlots.func1": "fit",
		"affinity/internal/kernel.(*Matrix).covPanel":      "panel",
		"affinity/internal/kernel.CrossPanel":              "panel",
		"affinity/internal/symex.reduceCrossMoments":       "cross",
		"affinity/internal/scape.(*Index).buildNodes":      "node",
	}
	// madeByPool counts, per pool, the allocations made inside a Scratch's
	// Get; three collections publish every allocation made before them.
	madeByPool := func() map[string]int64 {
		for range 3 {
			runtime.GC()
		}
		var records []runtime.MemProfileRecord
		for n := 256; ; n *= 2 {
			records = make([]runtime.MemProfileRecord, n)
			if got, ok := runtime.MemProfile(records, true); ok {
				records = records[:got]
				break
			}
		}
		out := map[string]int64{}
		for _, r := range records {
			frames := runtime.CallersFrames(r.Stack())
			for inGet := false; ; {
				f, more := frames.Next()
				if inGet {
					out[pools[f.Function]] += r.AllocObjects
					break
				}
				inGet = strings.HasPrefix(f.Function, "affinity/internal/par.(*Scratch[") && strings.HasSuffix(f.Function, "]).Get")
				if !more {
					break
				}
			}
		}
		return out
	}
	for r := range rounds {
		advance(r)
		runtime.GC()
	}
	made := madeByPool()
	for pool, perEngine := range map[string]int64{"fit": parallelism, "panel": parallelism, "cross": 1, "node": 1} {
		if n, most := made[pool], perEngine*int64(len(engines)); n == 0 || n > most {
			t.Errorf("%d rounds of Advances, a collection after each, made %d %s scratch buffers, want 1 to %d", rounds, n, pool, most)
		}
	}
	t.Logf("scratch buffers made: %v", made)
}
