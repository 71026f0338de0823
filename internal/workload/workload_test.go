package workload

import (
	"errors"
	"sort"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{NumSeries: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("n=1 err = %v", err)
	}
	if _, err := NewGenerator(Config{NumSeries: 10, Measures: []measure.Measure{measure.Measure(99)}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad measure err = %v", err)
	}
	g, err := NewGenerator(Config{NumSeries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.SeriesPerQuery != DefaultSeriesPerQuery {
		t.Fatalf("default series per query = %d", g.cfg.SeriesPerQuery)
	}
}

func TestNextProducesDistinctSeriesInRange(t *testing.T) {
	g, err := NewGenerator(Config{NumSeries: 50, SeriesPerQuery: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		q := g.Next()
		if !q.Measure.Valid() {
			t.Fatalf("invalid measure %v", q.Measure)
		}
		if len(q.Series) != 10 {
			t.Fatalf("query has %d series", len(q.Series))
		}
		seen := map[int]bool{}
		for _, id := range q.Series {
			if int(id) < 0 || int(id) >= 50 {
				t.Fatalf("series %d out of range", id)
			}
			if seen[int(id)] {
				t.Fatalf("duplicate series %d in query", id)
			}
			seen[int(id)] = true
		}
	}
}

func TestSeriesPerQueryClampedToN(t *testing.T) {
	g, err := NewGenerator(Config{NumSeries: 4, SeriesPerQuery: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := g.Next()
	if len(q.Series) != 4 {
		t.Fatalf("clamped query has %d series, want 4", len(q.Series))
	}
}

func TestBatchAndDeterminism(t *testing.T) {
	a, _ := NewGenerator(Config{NumSeries: 30, Seed: 7})
	b, _ := NewGenerator(Config{NumSeries: 30, Seed: 7})
	qa := a.Batch(100)
	qb := b.Batch(100)
	if len(qa) != 100 {
		t.Fatalf("batch size %d", len(qa))
	}
	for i := range qa {
		if qa[i].Measure != qb[i].Measure {
			t.Fatal("same seed should give identical measures")
		}
		for j := range qa[i].Series {
			if qa[i].Series[j] != qb[i].Series[j] {
				t.Fatal("same seed should give identical series")
			}
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	g, _ := NewGenerator(Config{NumSeries: 200, SeriesPerQuery: 5, Seed: 11})
	queries := g.Batch(4000)
	counts := PopularityCounts(queries, 200)
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	topShare := 0
	total := 0
	for i, c := range sorted {
		total += c
		if i < 20 {
			topShare += c
		}
	}
	// With a power-law popularity, the 10% most popular series should account
	// for a disproportionate share of requests.
	if float64(topShare) < 0.3*float64(total) {
		t.Fatalf("top-20 series received %d of %d requests; expected clear skew", topShare, total)
	}
}

func TestMeasureRestriction(t *testing.T) {
	g, err := NewGenerator(Config{
		NumSeries: 20,
		Measures:  []measure.Measure{measure.Covariance},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range g.Batch(50) {
		if q.Measure != measure.Covariance {
			t.Fatalf("unexpected measure %v", q.Measure)
		}
	}
}

func TestPopularityCountsIgnoresOutOfRange(t *testing.T) {
	queries := []MECQuery{{Measure: measure.Mean, Series: []timeseries.SeriesID{1, 99, -3}}}
	counts := PopularityCounts(queries, 5)
	if counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Fatalf("out-of-range identifiers should be ignored, counts = %v", counts)
	}
}
