package symex_test

import (
	"fmt"
	"testing"

	"affinity/internal/core"
	"affinity/internal/dataset"
	"affinity/internal/shard"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// streamer is what the counting test drives: an engine or a coordinator.
type streamer interface {
	Append(tick []float64) error
	Advance() (core.AdvanceInfo, error)
}

// TestOneReductionPerWindowAndEngine: a window's pivot terms and its
// series-versus-own-centre covariances are each reduced once per engine — the
// fits, the summaries and drift scoring, the calibration and the index all
// read the one reduction — at a build and on every Advance, whether the epoch
// refits everything or a drift-selected stale set.  A coordinator of S shards
// reduces once per shard (each shard its own pivots), plus once for the
// global fits at a build.
func TestOneReductionPerWindowAndEngine(t *testing.T) {
	full, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 24, NumSamples: 80 + 24, NumGroups: 4, Noise: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	window, err := full.Window(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	tick := func(i int) []float64 {
		out := make([]float64, full.NumSeries())
		for v := range out {
			s, _ := full.Series(timeseries.SeriesID(v))
			out[v] = s[80+i]
		}
		return out
	}
	type build struct {
		name       string
		perEpoch   int64 // reductions of each kind per Advance
		atBuild    int64 // and at the build
		streamFrom func() (streamer, error)
	}
	engine := func(cfg core.Config) func() (streamer, error) {
		return func() (streamer, error) { return core.Build(window, cfg) }
	}
	builds := []build{
		{"SYMEX+ refit-all", 1, 1, engine(core.Config{Clusters: 4, Seed: 2, Parallelism: 2})},
		{"SYMEX+ drift-selected", 1, 1, engine(core.Config{Clusters: 4, Seed: 2, Stream: core.StreamConfig{DriftBound: 0.05}})},
	}
	for _, s := range []int{1, 2, 4} {
		s := s
		builds = append(builds, build{fmt.Sprintf("coordinator S=%d", s), int64(s), int64(s) + 1, func() (streamer, error) {
			return shard.Build(window, shard.Config{Shards: s, Engine: core.Config{Clusters: 4, Seed: 2, Parallelism: 2}})
		}})
	}
	for _, b := range builds {
		terms0, covs0 := symex.Reductions()
		e, err := b.streamFrom()
		if err != nil {
			t.Fatal(err)
		}
		terms1, covs1 := symex.Reductions()
		if terms1-terms0 != b.atBuild || covs1-covs0 != b.atBuild {
			t.Fatalf("%s: the build reduced the pivot terms %d and the centre covariances %d times, want %d each",
				b.name, terms1-terms0, covs1-covs0, b.atBuild)
		}
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < 4; i++ {
				if err := e.Append(tick(4*epoch + i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Advance(); err != nil {
				t.Fatal(err)
			}
			terms2, covs2 := symex.Reductions()
			if terms2-terms1 != b.perEpoch || covs2-covs1 != b.perEpoch {
				t.Fatalf("%s, epoch %d: the pivot terms were reduced %d and the centre covariances %d times, want %d each",
					b.name, epoch+1, terms2-terms1, covs2-covs1, b.perEpoch)
			}
			terms1, covs1 = terms2, covs2
		}
	}
}
