// Streaming: run the AFFINITY engine as a sliding window over a live tick
// stream.  New samples arrive one tick at a time (one sample per series),
// the window advances in small batches, and threshold queries keep being
// served concurrently from the epoch that was current when they started —
// the scenario the paper motivates with sensor networks and stock tickers.
//
// The demo contrasts the two maintenance policies:
//
//   - exact maintenance (DriftBound = 0): every affine relationship is
//     re-fitted on every advance, matching a cold rebuild on the slid window
//     with the frozen clustering;
//   - drift-bounded maintenance (DriftBound = 0.05): only relationships whose
//     transform-predicted variance drifted from the observed one are
//     re-fitted, skipping most of the least-squares work on quiet windows;
//   - coarse drift-bounded maintenance (DriftBound = 1.0): few relationships
//     are marked stale per epoch, so the incremental SCAPE index update
//     shares nearly every pivot store with the previous epoch's index and
//     re-derives only the ones a stale pair touched.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"affinity"
)

const (
	numSeries = 80
	window    = 240 // samples retained per series
	slide     = 20  // ticks folded per advance
	rounds    = 8
)

func main() {
	// One long synthetic stock day; the tail past the initial window plays
	// the role of the live stream.
	full, err := affinity.GenerateStockData(affinity.StockDataConfig{
		NumSeries:  numSeries,
		NumSamples: window + slide*rounds,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ticks := make([][]float64, slide*rounds)
	for t := range ticks {
		tick := make([]float64, numSeries)
		for v := 0; v < numSeries; v++ {
			s, err := full.Series(affinity.SeriesID(v))
			if err != nil {
				log.Fatal(err)
			}
			tick[v] = s[window+t]
		}
		ticks[t] = tick
	}
	initial, err := full.Window(0, window)
	if err != nil {
		log.Fatal(err)
	}

	for _, policy := range []struct {
		name  string
		drift float64
	}{
		{"exact maintenance (refit all)", 0},
		{"drift-bounded (refit stale only)", 0.05},
		{"drift-bounded (coarse bound, incremental index)", 1.0},
	} {
		eng, err := affinity.New(initial, affinity.Options{
			Clusters:   6,
			Seed:       42,
			DriftBound: policy.drift,
		})
		if err != nil {
			log.Fatal(err)
		}

		// A background reader keeps querying while the stream advances; the
		// epoch swap guarantees it always sees a complete, consistent state.
		var stop atomic.Bool
		var served atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := eng.CorrelatedPairs(0.9); err != nil {
					log.Fatal(err)
				}
				served.Add(1)
			}
		}()

		fmt.Printf("\n%s\n", policy.name)
		fmt.Println("epoch  window-start  refit  reused  advance-time  corr>0.9")
		var totalRefit int
		start := time.Now()
		for round := 0; round < rounds; round++ {
			for _, tick := range ticks[round*slide : (round+1)*slide] {
				if err := eng.Append(tick); err != nil {
					log.Fatal(err)
				}
			}
			info, err := eng.Advance()
			if err != nil {
				log.Fatal(err)
			}
			totalRefit += info.RefitRelationships
			pairs, err := eng.CorrelatedPairs(0.9)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5d  %12d  %5d  %6d  %12v  %8d\n",
				info.Epoch, eng.Data().StartIndex(), info.RefitRelationships,
				info.ReusedRelationships, info.Duration.Round(time.Microsecond), len(pairs))
		}
		elapsed := time.Since(start)
		stop.Store(true)
		wg.Wait()
		fmt.Printf("total: %d refits over %d epochs in %v; %d concurrent queries served\n",
			totalRefit, rounds, elapsed.Round(time.Millisecond), served.Load())

		// Incremental-maintenance observability: how many epochs updated the
		// SCAPE index vs rebuilt it, how many pivot stores consecutive epochs
		// shared, and how well the per-epoch scratch pools recycled.
		ss := eng.StreamStats()
		fmt.Printf("index maintenance: %d delta updates, %d rebuilds; stores %d shared / %d re-derived / %d rebuilt; entries -%d/+%d\n",
			ss.IndexUpdates, ss.IndexRebuilds,
			ss.StoresShared, ss.StoresCloned, ss.StoresRebuilt,
			ss.EntriesDeleted, ss.EntriesInserted)
		fmt.Printf("pools: %.0f%% hit rate; last epoch phases: slide %v, refit %v, index %v\n",
			100*ss.PoolHitRate(),
			ss.LastSlidePhase.Round(time.Microsecond),
			ss.LastRefitPhase.Round(time.Microsecond),
			ss.LastIndexPhase.Round(time.Microsecond))
	}
}
