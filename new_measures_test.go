package affinity_test

// End-to-end acceptance tests for the measures registered through the
// declarative algebra (Euclidean distance, mean squared difference, angular
// distance): MET/MER intervals and MEC through naive, affine and SCAPE —
// including MethodAuto with Explain plans — agreeing with the naive method
// within 1e-9, with the index's decreasing-transform pruning demonstrably
// active.
//
// The dataset is exactly affine (every series is a noiseless affine image of
// its group's base signal), so the affine relationships reproduce the raw
// series exactly and W_A/SCAPE agree with W_N to floating-point rounding —
// which is what lets the 1e-9 bound hold for result sets, not just values.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"affinity"
)

func exactAffineDataset(t testing.TB) *affinity.Dataset {
	t.Helper()
	const n, m, groups = 36, 120, 4
	series := make([][]float64, n)
	for s := 0; s < n; s++ {
		g := s % groups
		scale := 0.5 + 0.13*float64(s%7)
		offset := 0.3*float64(s%5) - 0.6
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			base := math.Sin(float64(i)*0.05*float64(g+1)) +
				0.5*math.Cos(float64(i)*0.017*float64(g+2))
			col[i] = scale*base + offset
		}
		series[s] = col
	}
	d, err := affinity.NewDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newMeasures() []affinity.Measure {
	return []affinity.Measure{
		affinity.EuclideanDistance, affinity.MeanSquaredDifference, affinity.AngularDistance,
	}
}

// naiveDistribution returns the sorted distinct naive values of a pairwise
// measure plus midpoints between them — probe thresholds that cannot collide
// with any value, so exact set equality across methods is well-posed.
func naiveDistribution(t *testing.T, eng *affinity.Engine, m affinity.Measure) (values []float64, midpoint func(q float64) float64) {
	t.Helper()
	matrix, err := eng.ComputePairwise(m, eng.Data().IDs(), affinity.Naive)
	if err != nil {
		t.Fatal(err)
	}
	for i := range matrix {
		for j := i + 1; j < len(matrix[i]); j++ {
			if !math.IsNaN(matrix[i][j]) {
				values = append(values, matrix[i][j])
			}
		}
	}
	sort.Float64s(values)
	midpoint = func(q float64) float64 {
		k := int(q * float64(len(values)-1))
		for k+1 < len(values) && values[k+1] == values[k] {
			k++
		}
		if k+1 >= len(values) {
			return values[k] + 1
		}
		return values[k] + (values[k+1]-values[k])/2
	}
	return values, midpoint
}

func TestNewMeasuresAllMethodsAgreeWithNaive(t *testing.T) {
	eng, err := affinity.New(exactAffineDataset(t), affinity.Options{Clusters: 4, Seed: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := eng.Data().IDs()

	for _, m := range newMeasures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			// MEC: affine values match naive within 1e-9, diagonals are 0.
			// Angular distance is compared in the cosine domain: arccos has an
			// infinite condition number at distance 0 (a 1-ulp perturbation of
			// a perfect cosine moves the angle by ~1e-8), so the 1e-9 contract
			// is stated on the transform's well-conditioned inverse.
			naiveMat, err := eng.ComputePairwise(m, ids, affinity.Naive)
			if err != nil {
				t.Fatal(err)
			}
			affineMat, err := eng.ComputePairwise(m, ids, affinity.Affine)
			if err != nil {
				t.Fatal(err)
			}
			for i := range naiveMat {
				for j := range naiveMat[i] {
					nv, av := naiveMat[i][j], affineMat[i][j]
					if math.IsNaN(nv) != math.IsNaN(av) {
						t.Fatalf("MEC (%d,%d): NaN mismatch naive=%v affine=%v", i, j, nv, av)
					}
					if math.IsNaN(nv) {
						continue
					}
					a, b := nv, av
					if m == affinity.AngularDistance {
						a, b = math.Cos(math.Pi*nv), math.Cos(math.Pi*av)
					}
					if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
						t.Fatalf("MEC (%d,%d): naive %v vs affine %v", i, j, nv, av)
					}
				}
				if naiveMat[i][i] != 0 {
					t.Fatalf("distance of series %d to itself = %v, want 0", i, naiveMat[i][i])
				}
			}
			naiveValues := make(map[affinity.Pair]float64)
			for i := range ids {
				for j := i + 1; j < len(ids); j++ {
					naiveValues[affinity.Pair{U: ids[i], V: ids[j]}] = naiveMat[i][j]
				}
			}

			_, midpoint := naiveDistribution(t, eng, m)
			taus := []float64{midpoint(0.25), midpoint(0.5), midpoint(0.75)}
			lo, hi := taus[0], taus[2]

			// MET/MER: every method returns the same result set as naive
			// (midpoint thresholds make exact set equality well-posed at
			// 1e-9 value agreement).
			for _, method := range []struct {
				name string
				m    affinity.Method
			}{{"affine", affinity.Affine}, {"index", affinity.Index}} {
				for _, tau := range taus {
					for _, iv := range []affinity.Interval{affinity.GreaterThan(tau), affinity.LessThan(tau)} {
						want, err := eng.Interval(m, iv, affinity.Naive)
						if err != nil {
							t.Fatal(err)
						}
						got, err := eng.Interval(m, iv, method.m)
						if err != nil {
							t.Fatalf("%s threshold: %v", method.name, err)
						}
						assertSameSet(t, fmt.Sprintf("MET %v %v via %s", m, iv, method.name),
							got, want, naiveValues, boundaryTol(m), tau)
					}
				}
				want, err := eng.Interval(m, affinity.Between(lo, hi), affinity.Naive)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Interval(m, affinity.Between(lo, hi), method.m)
				if err != nil {
					t.Fatalf("%s range: %v", method.name, err)
				}
				assertSameSet(t, fmt.Sprintf("MER %v via %s", m, method.name),
					got, want, naiveValues, boundaryTol(m), lo, hi)
			}

			// MethodAuto with Explain: concrete plan, result identical to the
			// chosen method, actuals filled, and the estimate the index's
			// exact count of the rows — the value column of a decreasing
			// transform counted the way the scan reads it.
			spec := affinity.IntervalSpec(m, affinity.GreaterThan(taus[1]))
			res, p, err := eng.Explain(spec, affinity.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if p.Method == affinity.Auto {
				t.Fatalf("Explain left a non-concrete method: %v", p)
			}
			fixed, err := eng.Interval(m, affinity.GreaterThan(taus[1]), p.Method)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("auto MET %v", m), res, fixed)
			if p.ActualRows != res.Size() {
				t.Fatalf("plan actual rows %d != result size %d", p.ActualRows, res.Size())
			}
			if !p.SelectivityExact || p.EstimatedRows != p.ActualRows {
				t.Fatalf("estimated %d rows (exact %v), the query returned %d: %v",
					p.EstimatedRows, p.SelectivityExact, p.ActualRows, p)
			}

			// Batched queries answer identically to singles for the new
			// measures under every method.
			for _, method := range []affinity.Method{affinity.Naive, affinity.Affine, affinity.Index, affinity.Auto} {
				batch, err := eng.Batch([]affinity.QuerySpec{
					affinity.IntervalSpec(m, affinity.GreaterThan(taus[1])),
					affinity.IntervalSpec(m, affinity.LessThan(taus[0])),
				}, method)
				if err != nil {
					t.Fatalf("batch via %v: %v", method, err)
				}
				s0, err := eng.Interval(m, affinity.GreaterThan(taus[1]), method)
				if err != nil {
					t.Fatal(err)
				}
				s1, err := eng.Interval(m, affinity.LessThan(taus[0]), method)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("batch[0] via %v", method), batch[0], s0)
				assertSameResult(t, fmt.Sprintf("batch[1] via %v", method), batch[1], s1)
			}
		})
	}
}

// TestNewMeasuresOutOfRangeProbes pins the Bounded short-circuits end to end:
// distances are non-negative, so the interval (−1, +∞) matches every pair
// and (−∞, −1) none, on every method identically.
func TestNewMeasuresOutOfRangeProbes(t *testing.T) {
	eng, err := affinity.New(exactAffineDataset(t), affinity.Options{Clusters: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range newMeasures() {
		for _, method := range []affinity.Method{affinity.Naive, affinity.Affine, affinity.Index, affinity.Auto} {
			all, err := eng.Interval(m, affinity.GreaterThan(-1), method)
			if err != nil {
				t.Fatalf("%v via %v: %v", m, method, err)
			}
			none, err := eng.Interval(m, affinity.LessThan(-1), method)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := eng.Interval(m, affinity.GreaterThan(-1), affinity.Naive)
			if err != nil {
				t.Fatal(err)
			}
			if all.Size() != naive.Size() {
				t.Fatalf("%v > -1 via %v: %d results, naive has %d", m, method, all.Size(), naive.Size())
			}
			if none.Size() != 0 {
				t.Fatalf("%v < -1 via %v: %d results, want 0", m, method, none.Size())
			}
		}
	}
}

// assertSameResult requires entry-for-entry equality including order; used
// when comparing the same method against itself (auto vs chosen, batch vs
// single), where the executor guarantees identical traversal.
func assertSameResult(t *testing.T, label string, got, want affinity.Result) {
	t.Helper()
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Fatalf("%s: result mismatch\n got (%d): %.160v\nwant (%d): %.160v",
			label, got.Size(), got, want.Size(), want)
	}
}

// boundaryTol is the per-measure value tolerance at a query bound: 1e-9 for
// the well-conditioned distance transforms; angular distance gets the
// arccos-at-the-endpoint allowance (√(2·1e-9) ≈ 4.5e-5 of a half-turn is the
// best any float64 pipeline can resolve near distance 0, and the synthetic
// dataset's within-group distances sit exactly there).
func boundaryTol(m affinity.Measure) float64 {
	if m == affinity.AngularDistance {
		return 1e-4
	}
	return 1e-9
}

// assertSameSet compares result sets across different execution methods:
// membership must agree except for pairs whose naive value lies within tol of
// one of the query bounds (methods legitimately round such pairs to opposite
// sides); order is method-specific and deliberately not compared.
func assertSameSet(t *testing.T, label string, got, want affinity.Result,
	values map[affinity.Pair]float64, tol float64, bounds ...float64) {
	t.Helper()
	nearBound := func(p affinity.Pair) bool {
		v, ok := values[p]
		if !ok {
			return false
		}
		for _, b := range bounds {
			if math.Abs(v-b) <= tol*(1+math.Abs(b)) {
				return true
			}
		}
		return false
	}
	gotSet := make(map[affinity.Pair]bool, len(got.Pairs))
	for _, p := range got.Pairs {
		gotSet[p] = true
	}
	wantSet := make(map[affinity.Pair]bool, len(want.Pairs))
	for _, p := range want.Pairs {
		wantSet[p] = true
	}
	for p := range gotSet {
		if !wantSet[p] && !nearBound(p) {
			t.Fatalf("%s: pair %v (value %v) only in got set", label, p, values[p])
		}
	}
	for p := range wantSet {
		if !gotSet[p] && !nearBound(p) {
			t.Fatalf("%s: pair %v (value %v) only in want set", label, p, values[p])
		}
	}
}
