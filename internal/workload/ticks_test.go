package workload

import (
	"math"
	"sort"
	"testing"
)

// hotSeries returns the ids sorted hottest-first: largest amplitude, ties by
// ascending id.
func hotSeries(s *TickStream) []int {
	ids := make([]int, len(s.amplitude))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool { return s.amplitude[ids[i]] > s.amplitude[ids[j]] })
	return ids
}

func TestTickStreamDeterministic(t *testing.T) {
	cfg := TickConfig{NumSeries: 16, Skew: 1.4, Seed: 11}
	a, err := NewTickStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTickStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Ticks(50), b.Ticks(50)
	for i := range ta {
		for v := range ta[i] {
			if ta[i][v] != tb[i][v] {
				t.Fatalf("tick %d series %d: %v != %v", i, v, ta[i][v], tb[i][v])
			}
			if math.IsNaN(ta[i][v]) || math.IsInf(ta[i][v], 0) {
				t.Fatalf("tick %d series %d: non-finite %v", i, v, ta[i][v])
			}
		}
	}
}

func TestTickStreamSkew(t *testing.T) {
	s, err := NewTickStream(TickConfig{NumSeries: 64, Skew: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The hottest series' amplitude must dominate the median one by the Zipf
	// decay.
	amps, hot := s.amplitude, hotSeries(s)
	if amps[hot[0]] < 8*amps[hot[31]] {
		t.Fatalf("insufficient skew: hottest %v vs median %v", amps[hot[0]], amps[hot[31]])
	}
	// Observed movement must follow the skew: the hottest series' total
	// variation dominates the coldest's.
	ticks := s.Ticks(200)
	variation := make([]float64, 64)
	for i := 1; i < len(ticks); i++ {
		for v := range ticks[i] {
			variation[v] += math.Abs(ticks[i][v] - ticks[i-1][v])
		}
	}
	if variation[hot[0]] <= variation[hot[63]] {
		t.Fatalf("hottest series moved less than coldest: %v vs %v",
			variation[hot[0]], variation[hot[63]])
	}

	if _, err := NewTickStream(TickConfig{}); err == nil {
		t.Fatal("NewTickStream accepted zero series")
	}
}

func TestTickStreamRankDecay(t *testing.T) {
	// The amplitude of the rank-r series follows the exact Zipf decay law
	// HotAmplitude/(r+1)^Skew, so the sequence is strictly decreasing in rank.
	cfg := TickConfig{NumSeries: 32, Skew: 1.3, HotAmplitude: 2.5, Seed: 9}
	s, err := NewTickStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	amps, hot := s.amplitude, hotSeries(s)
	for rank, id := range hot {
		want := cfg.HotAmplitude / math.Pow(float64(rank+1), cfg.Skew)
		if amps[id] != want {
			t.Fatalf("rank %d (series %d): amplitude %v, want %v", rank, id, amps[id], want)
		}
		if rank > 0 && amps[id] >= amps[hot[rank-1]] {
			t.Fatalf("rank %d amplitude %v not strictly below rank %d's %v",
				rank, amps[id], rank-1, amps[hot[rank-1]])
		}
	}
}

func TestTickStreamDefaults(t *testing.T) {
	// Zero/invalid Skew and HotAmplitude fall back to the documented defaults:
	// the hottest series gets amplitude HotAmplitude=1 and the decay exponent
	// is DefaultTickSkew.
	s, err := NewTickStream(TickConfig{NumSeries: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	amps, hot := s.amplitude, hotSeries(s)
	if amps[hot[0]] != 1.0 {
		t.Fatalf("default hottest amplitude %v, want 1.0", amps[hot[0]])
	}
	for rank, id := range hot {
		want := 1.0 / math.Pow(float64(rank+1), DefaultTickSkew)
		if amps[id] != want {
			t.Fatalf("rank %d: default-decay amplitude %v, want %v", rank, amps[id], want)
		}
	}
}

func TestTickStreamTicksContinuity(t *testing.T) {
	// Ticks(n) returns n ticks of NumSeries samples, and consecutive calls
	// continue the stream: 5+5 ticks equal a fresh stream's first 10.
	cfg := TickConfig{NumSeries: 12, Skew: 1.2, Seed: 21}
	split, err := NewTickStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewTickStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := append(split.Ticks(5), split.Ticks(5)...)
	want := whole.Ticks(10)
	if len(got) != 10 {
		t.Fatalf("got %d ticks, want 10", len(got))
	}
	for i := range got {
		if len(got[i]) != cfg.NumSeries {
			t.Fatalf("tick %d has %d samples, want %d", i, len(got[i]), cfg.NumSeries)
		}
		for v := range got[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("tick %d series %d: split %v != whole %v", i, v, got[i][v], want[i][v])
			}
		}
	}
}
