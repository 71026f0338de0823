package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultTickSkew is the default Zipf exponent of the hot-series activity
// distribution.
const DefaultTickSkew = 1.2

// TickConfig parameterizes the zipfian hot-series tick generator: a stream of
// update ticks where a Zipf-skewed subset of series moves vigorously while
// the long tail barely changes.  This is the update-side counterpart of the
// query generator's popularity skew — busy sensors both answer most queries
// and produce most signal — and it is what makes sharded streaming
// interesting: the hot series concentrate refit work on the shards owning
// their clusters, so the shard benchmarks exercise imbalanced load rather
// than a uniform one.
type TickConfig struct {
	// NumSeries is the number of series per tick.
	NumSeries int
	// Skew is the Zipf exponent s > 1 of the activity distribution (default
	// DefaultTickSkew); larger values concentrate the movement on fewer
	// series.
	Skew float64
	// HotAmplitude scales the random-walk step of the hottest series
	// (default 1.0); the step of the rank-r series decays as 1/(r+1)^Skew.
	HotAmplitude float64
	// Seed makes the stream reproducible: the same (NumSeries, Skew,
	// HotAmplitude, Seed) always produce the same ticks.
	Seed int64
}

func (c TickConfig) withDefaults() TickConfig {
	if c.Skew <= 1 {
		c.Skew = DefaultTickSkew
	}
	if c.HotAmplitude <= 0 {
		c.HotAmplitude = 1.0
	}
	return c
}

// TickStream generates the tick stream deterministically.
type TickStream struct {
	cfg TickConfig
	rng *rand.Rand
	// amplitude[v] is series v's per-tick step scale: Zipf-decayed by the
	// series' activity rank, with ranks scattered over the identifier space.
	amplitude []float64
	// phase/freq drive a slow deterministic carrier so hot series stay
	// correlated in groups instead of diverging into pure noise.
	phase []float64
	freq  []float64
	tick  int
}

// NewTickStream builds a zipfian hot-series tick generator.
func NewTickStream(cfg TickConfig) (*TickStream, error) {
	if cfg.NumSeries < 1 {
		return nil, fmt.Errorf("%w: need at least 1 series, got %d", ErrBadConfig, cfg.NumSeries)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	amplitude := make([]float64, cfg.NumSeries)
	phase := make([]float64, cfg.NumSeries)
	freq := make([]float64, cfg.NumSeries)
	perm := rng.Perm(cfg.NumSeries)
	for rank, v := range perm {
		amplitude[v] = cfg.HotAmplitude / math.Pow(float64(rank+1), cfg.Skew)
		phase[v] = 2 * math.Pi * rng.Float64()
		freq[v] = 0.05 + 0.1*rng.Float64()
	}
	return &TickStream{cfg: cfg, rng: rng, amplitude: amplitude, phase: phase, freq: freq}, nil
}

// Next returns the next tick: one new sample per series.  Each series follows
// a sinusoidal carrier plus Gaussian noise, both scaled by the series'
// Zipf-decayed amplitude, so the hottest series swing the most while the long
// tail is nearly flat.
func (s *TickStream) Next() []float64 {
	t := float64(s.tick)
	s.tick++
	out := make([]float64, s.cfg.NumSeries)
	for v := range out {
		a := s.amplitude[v]
		out[v] = a*math.Sin(s.phase[v]+s.freq[v]*t) + 0.1*a*s.rng.NormFloat64()
	}
	return out
}

// Ticks returns the next count ticks.
func (s *TickStream) Ticks(count int) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
