package core

import (
	"fmt"
	"math"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// The DESIGN.md invariant "engines are deterministic given (data, seed,
// config), at any parallelism" is pinned end to end by the operation lattice
// (lattice_test.go at the module root), which replays generated sequences at
// Parallelism 1, 2 and 8; the tests here pin the orderings it relies on.

// determinismLevels are the parallelism levels the parity tests compare.
var determinismLevels = []int{1, 2, 8}

// TestDeterministicRebuild pins that two identical sequential builds agree —
// the index pivot order must not depend on map iteration.
func TestDeterministicRebuild(t *testing.T) {
	build := func() *Engine {
		fx := makeStreamFixture(t, 20, 90, 0, 7)
		e, err := Build(fx.window, Config{Clusters: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	for _, m := range []stats.Measure{stats.Covariance, stats.Correlation, stats.Mean} {
		ra, err := a.Interval(m, interval.GreaterThan(0.2), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Interval(m, interval.GreaterThan(0.2), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", ra) != fmt.Sprintf("%v", rb) {
			t.Fatalf("rebuild changed %v threshold result order:\n%v\nvs\n%v", m, ra, rb)
		}
	}
}

// TestTieOrderingStable pins the duplicate-key ordering of index scans: with
// constant-shifted copies of one series, many pairs share the same scalar
// projection, and the scan order must still be reproducible.
func TestTieOrderingStable(t *testing.T) {
	const n, samples = 12, 64
	series := make([][]float64, n)
	base := make([]float64, samples)
	for i := range base {
		base[i] = math.Sin(float64(i) / 5)
	}
	for v := range series {
		s := make([]float64, samples)
		for i := range s {
			s[i] = base[i] + float64(v)*0.001
		}
		series[v] = s
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p int) *Engine {
		e, err := Build(d, Config{Clusters: 2, Seed: 3, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var want string
	for _, p := range determinismLevels {
		e := build(p)
		res, err := e.Interval(stats.Covariance, interval.GreaterThan(0.0), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", res.Pairs)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("parallelism %d changes tie ordering:\n%s\nvs\n%s", p, got, want)
		}
	}
}
