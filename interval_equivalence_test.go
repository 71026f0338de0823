package affinity_test

// Interval predicate suite: the endpoint semantics of the one predicate type
// every MET and MER query is written in, probed at an exact measure value so
// boundary equality exercises the open/closed endpoint handling.

import (
	"errors"
	"math"
	"sort"
	"testing"

	"affinity"
)

func equivalenceEngine(t testing.TB) *affinity.Engine {
	t.Helper()
	data, err := affinity.GenerateSensorData(affinity.SensorDataConfig{
		NumSeries: 30, NumSamples: 90, NumGroups: 3, Seed: 20260728,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := affinity.New(data, affinity.Options{Clusters: 3, Seed: 11, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// observedMedian returns the median of the pairwise measure's naive values: an exact
// observed value, so it sits precisely on the open/closed boundary.
func observedMedian(t testing.TB, eng *affinity.Engine, m affinity.Measure) float64 {
	t.Helper()
	matrix, err := eng.ComputePairwise(m, eng.Data().IDs(), affinity.Naive)
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	for i := range matrix {
		for j := i + 1; j < len(matrix[i]); j++ {
			if !math.IsNaN(matrix[i][j]) {
				vals = append(vals, matrix[i][j])
			}
		}
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		t.Fatalf("%v: no finite values", m)
	}
	return vals[len(vals)/2]
}

// TestIntervalOpenClosedSemantics pins the endpoint semantics the grammar
// promises, using an exact observed value as the boundary: a closed endpoint
// includes the boundary entries, the open endpoint excludes them, and their
// difference is exactly the boundary set.
func TestIntervalOpenClosedSemantics(t *testing.T) {
	eng := equivalenceEngine(t)
	for _, m := range []affinity.Measure{affinity.Covariance, affinity.Correlation, affinity.EuclideanDistance} {
		tau := observedMedian(t, eng, m)
		for _, method := range []affinity.Method{affinity.Naive, affinity.Affine, affinity.Index} {
			atLeast, err := eng.Interval(m, affinity.AtLeast(tau), method)
			if err != nil {
				t.Fatal(err)
			}
			above, err := eng.Interval(m, affinity.GreaterThan(tau), method)
			if err != nil {
				t.Fatal(err)
			}
			point, err := eng.Interval(m, affinity.Between(tau, tau), method)
			if err != nil {
				t.Fatal(err)
			}
			if len(atLeast.Pairs) != len(above.Pairs)+len(point.Pairs) {
				t.Errorf("%v via %v: |[τ,∞)| = %d but |(τ,∞)| + |[τ,τ]| = %d + %d",
					m, method, len(atLeast.Pairs), len(above.Pairs), len(point.Pairs))
			}
			if method == affinity.Naive && len(point.Pairs) == 0 {
				t.Errorf("%v: naive point query at an exact observed value returned nothing", m)
			}
		}
	}
	// An empty interval is rejected with the shared typed error.
	if _, err := eng.Interval(affinity.Correlation, affinity.Between(1, 0), affinity.Naive); !errors.Is(err, affinity.ErrEmptyRange) {
		t.Fatalf("empty interval err = %v, want ErrEmptyRange", err)
	}
}
