package affinity

import (
	"math"
	"testing"
)

// streamData generates a stock dataset and splits it into an initial window
// plus a stream of ticks.
func streamData(t testing.TB, n, window, streamLen int) (*Dataset, [][]float64) {
	t.Helper()
	full, err := GenerateStockData(StockDataConfig{
		NumSeries:  n,
		NumSamples: window + streamLen,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make([][]float64, streamLen)
	for s := 0; s < streamLen; s++ {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			series, err := full.Series(SeriesID(v))
			if err != nil {
				t.Fatal(err)
			}
			tick[v] = series[window+s]
		}
		ticks[s] = tick
	}
	initial, err := full.Window(0, window)
	if err != nil {
		t.Fatal(err)
	}
	return initial, ticks
}

// TestPublicStreaming drives the public Append/Advance API across several
// window slides and checks the engine keeps answering all three query types
// coherently on the slid window.
func TestPublicStreaming(t *testing.T) {
	const n, window, slide, rounds = 20, 120, 10, 3
	initial, ticks := streamData(t, n, window, slide*rounds)
	eng, err := New(initial, Options{Clusters: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ids := initial.IDs()

	for round := 0; round < rounds; round++ {
		for _, tick := range ticks[round*slide : (round+1)*slide] {
			if err := eng.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if eng.PendingSamples() != slide {
			t.Fatalf("round %d: pending = %d", round, eng.PendingSamples())
		}
		info, err := eng.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch != round+1 || info.Slide != slide {
			t.Fatalf("round %d: info = %+v", round, info)
		}
		if eng.Epoch() != round+1 {
			t.Fatalf("round %d: Epoch() = %d", round, eng.Epoch())
		}
		if eng.Data().NumSamples() != window || eng.Data().StartIndex() != (round+1)*slide {
			t.Fatalf("round %d: window m=%d start=%d",
				round, eng.Data().NumSamples(), eng.Data().StartIndex())
		}

		// The affine approximation must track the naive ground truth on the
		// current window.
		truth, err := eng.ComputePairwise(Correlation, ids, Naive)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := eng.ComputePairwise(Correlation, ids, Affine)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range truth {
			for j := range truth[i] {
				if math.IsNaN(truth[i][j]) || math.IsNaN(approx[i][j]) {
					continue
				}
				if d := math.Abs(truth[i][j] - approx[i][j]); d > worst {
					worst = d
				}
			}
		}
		if worst > 0.25 {
			t.Fatalf("round %d: worst correlation error %v", round, worst)
		}

		// Index and affine threshold answers agree after the epoch swap.
		idxRes, err := eng.Interval(Correlation, GreaterThan(0.9), Index)
		if err != nil {
			t.Fatal(err)
		}
		affRes, err := eng.Interval(Correlation, GreaterThan(0.9), Affine)
		if err != nil {
			t.Fatal(err)
		}
		if len(idxRes.Pairs) != len(affRes.Pairs) {
			t.Fatalf("round %d: index %d pairs, affine %d",
				round, len(idxRes.Pairs), len(affRes.Pairs))
		}
	}
}
