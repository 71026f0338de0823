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
// series-versus-own-centre covariances come out of one cross pass per engine —
// the fits, the summaries and drift scoring, the calibration and the index all
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
		perEpoch   int64 // cross passes per Advance
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
		passes0 := symex.Reductions()
		e, err := b.streamFrom()
		if err != nil {
			t.Fatal(err)
		}
		passes1 := symex.Reductions()
		if passes1-passes0 != b.atBuild {
			t.Fatalf("%s: the build ran the cross pass %d times, want %d", b.name, passes1-passes0, b.atBuild)
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
			passes2 := symex.Reductions()
			if passes2-passes1 != b.perEpoch {
				t.Fatalf("%s, epoch %d: the cross pass ran %d times, want %d", b.name, epoch+1, passes2-passes1, b.perEpoch)
			}
			passes1 = passes2
		}
	}
}
