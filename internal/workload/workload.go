// Package workload generates synthetic — but realistic — query workloads for
// the online-environment experiments of Section 6.2 of the paper.
//
// Each measure computation (MEC) query picks a statistical measure uniformly
// at random and a small set of distinct series identifiers whose popularity
// follows a power law: a few entities (popular stocks, busy sensors) are
// requested far more often than the rest, exactly the skew the paper models.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// ErrBadConfig is returned for invalid workload configurations.
var ErrBadConfig = errors.New("workload: bad configuration")

// DefaultSeriesPerQuery matches the paper: every MEC query requests 10
// different series identifiers.
const DefaultSeriesPerQuery = 10

// DefaultPowerLawExponent is the default Zipf exponent of the popularity
// distribution.
const DefaultPowerLawExponent = 1.5

// MECQuery is one measure computation query: a statistical measure and the
// set ψ of requested series identifiers.
type MECQuery struct {
	Measure measure.Measure
	Series  []timeseries.SeriesID
}

// Config parameterizes the workload generator.
type Config struct {
	// NumSeries is the number of series n the queries may reference.
	NumSeries int
	// SeriesPerQuery is |ψ| (default 10, clamped to NumSeries).
	SeriesPerQuery int
	// PowerLawExponent is the Zipf exponent s > 1 of the popularity
	// distribution (default 1.5).
	PowerLawExponent float64
	// Measures restricts the measures queries may request (default: all
	// supported measures, chosen uniformly).
	Measures []measure.Measure
	// Seed makes the workload reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SeriesPerQuery <= 0 {
		c.SeriesPerQuery = DefaultSeriesPerQuery
	}
	if c.SeriesPerQuery > c.NumSeries {
		c.SeriesPerQuery = c.NumSeries
	}
	if c.PowerLawExponent <= 1 {
		c.PowerLawExponent = DefaultPowerLawExponent
	}
	if len(c.Measures) == 0 {
		c.Measures = measure.All()
	}
	return c
}

// Generator produces MEC queries.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	// popularity maps Zipf rank -> series identifier, so popular identifiers
	// are spread over the identifier space instead of always being 0..9.
	popularity []timeseries.SeriesID
}

// NewGenerator builds a workload generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.NumSeries < 2 {
		return nil, fmt.Errorf("%w: need at least 2 series, got %d", ErrBadConfig, cfg.NumSeries)
	}
	cfg = cfg.withDefaults()
	for _, m := range cfg.Measures {
		if !m.Valid() {
			return nil, fmt.Errorf("%w: invalid measure %d", ErrBadConfig, int(m))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.PowerLawExponent, 1, uint64(cfg.NumSeries-1))
	popularity := make([]timeseries.SeriesID, cfg.NumSeries)
	for i, p := range rng.Perm(cfg.NumSeries) {
		popularity[i] = timeseries.SeriesID(p)
	}
	return &Generator{cfg: cfg, rng: rng, zipf: zipf, popularity: popularity}, nil
}

// Next returns the next MEC query in the workload.
func (g *Generator) Next() MECQuery {
	measure := g.cfg.Measures[g.rng.Intn(len(g.cfg.Measures))]
	chosen := make(map[timeseries.SeriesID]bool, g.cfg.SeriesPerQuery)
	ids := make([]timeseries.SeriesID, 0, g.cfg.SeriesPerQuery)
	for len(ids) < g.cfg.SeriesPerQuery {
		rank := int(g.zipf.Uint64())
		id := g.popularity[rank]
		if chosen[id] {
			// The power law makes collisions common; fall back to a uniform
			// draw after a collision so that query generation stays O(|ψ|)
			// in expectation even for very skewed distributions.
			id = timeseries.SeriesID(g.rng.Intn(g.cfg.NumSeries))
			if chosen[id] {
				continue
			}
		}
		chosen[id] = true
		ids = append(ids, id)
	}
	return MECQuery{Measure: measure, Series: ids}
}

// Batch returns count queries.
func (g *Generator) Batch(count int) []MECQuery {
	out := make([]MECQuery, count)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// PopularityCounts returns, for a batch of queries, how often each series was
// requested.  It is used by tests and diagnostics to verify the power-law
// skew.
func PopularityCounts(queries []MECQuery, numSeries int) []int {
	counts := make([]int, numSeries)
	for _, q := range queries {
		for _, id := range q.Series {
			if int(id) >= 0 && int(id) < numSeries {
				counts[id]++
			}
		}
	}
	return counts
}
