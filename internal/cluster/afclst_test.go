package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// clusteredData builds n series drawn from k latent directions plus noise, so
// a correct clustering can recover the group structure.
func clusteredData(t *testing.T, rng *rand.Rand, k, perCluster, m int, noise float64) (*timeseries.DataMatrix, []int) {
	t.Helper()
	bases := make([][]float64, k)
	for c := range bases {
		b := make([]float64, m)
		for i := range b {
			b[i] = math.Sin(float64(i)*0.05*float64(c+1)) + rng.NormFloat64()*0.05
		}
		bases[c] = b
	}
	var series [][]float64
	var truth []int
	for c := 0; c < k; c++ {
		for j := 0; j < perCluster; j++ {
			scale := 0.5 + rng.Float64()*2
			s := make([]float64, m)
			for i := range s {
				s[i] = scale*bases[c][i] + rng.NormFloat64()*noise
			}
			series = append(series, s)
			truth = append(truth, c)
		}
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	return d, truth
}

func TestRunBasicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, _ := clusteredData(t, rng, 3, 12, 80, 0.02)
	res, err := Run(d, Config{K: 3, MaxIterations: 20, MinChanges: 0, Seed: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.K() != 3 {
		t.Fatalf("K() = %d", res.K())
	}
	if len(res.Assignment) != d.NumSeries() {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	for v, c := range res.Assignment {
		if c < 0 || c >= 3 {
			t.Fatalf("series %d assigned to invalid cluster %d", v, c)
		}
	}
	for _, center := range res.Centers {
		if len(center) != d.NumSamples() {
			t.Fatalf("center length %d, want %d", len(center), d.NumSamples())
		}
		if math.Abs(norm(center)-1) > 1e-9 {
			t.Fatalf("center not unit length: %v", norm(center))
		}
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
	sizes := res.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != d.NumSeries() {
		t.Fatalf("cluster sizes sum to %d, want %d", total, d.NumSeries())
	}
}

func TestRunRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, truth := clusteredData(t, rng, 3, 15, 100, 0.01)
	res, err := Run(d, Config{K: 3, MaxIterations: 30, MinChanges: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Series from the same planted cluster should mostly land in the same
	// AFCLST cluster.  Compute purity: for each planted group take the
	// majority assignment and count matches.
	groups := map[int][]int{}
	for v, g := range truth {
		groups[g] = append(groups[g], res.Assignment[v])
	}
	matches, total := 0, 0
	for _, assigned := range groups {
		counts := map[int]int{}
		for _, a := range assigned {
			counts[a]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		matches += best
		total += len(assigned)
	}
	purity := float64(matches) / float64(total)
	if purity < 0.9 {
		t.Fatalf("cluster purity %.2f, want >= 0.9", purity)
	}
}

func TestRunLowProjectionErrorForCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Exact multiples of two base directions: projection error should be ~0.
	d, _ := clusteredData(t, rng, 2, 10, 60, 0)
	res, err := Run(d, Config{K: 2, MaxIterations: 25, MinChanges: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v, e := range res.ProjectionErrors {
		s, _ := d.Series(timeseries.SeriesID(v))
		if e > 1e-6*(1+norm(s)) {
			t.Fatalf("series %d projection error %v, want ~0", v, e)
		}
	}
	if res.TotalProjectionError() > 1e-9 {
		t.Fatalf("total projection error %v", res.TotalProjectionError())
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, _ := clusteredData(t, rng, 3, 8, 50, 0.05)
	a, err := Run(d, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assignment {
		if a.Assignment[v] != b.Assignment[v] {
			t.Fatal("same seed should give identical assignments")
		}
	}
}

func TestRunConvergenceFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, _ := clusteredData(t, rng, 2, 10, 40, 0.01)
	// A very permissive δ_min converges after the first assignment round.
	res, err := Run(d, Config{K: 2, MaxIterations: 50, MinChanges: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("expected immediate convergence, got converged=%v iterations=%d",
			res.Converged, res.Iterations)
	}
}

func TestRunConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _ := clusteredData(t, rng, 2, 3, 20, 0.01)
	if _, err := Run(d, Config{K: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K=0 err = %v", err)
	}
	if _, err := Run(d, Config{K: 100}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K>n err = %v", err)
	}
	if _, err := Run(d, Config{K: 2, MaxIterations: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative iterations err = %v", err)
	}
	empty := &timeseries.DataMatrix{}
	if _, err := Run(empty, Config{K: 1}); err == nil {
		t.Fatal("empty data should error")
	}
}

func TestRunHandlesConstantAndZeroSeries(t *testing.T) {
	series := [][]float64{
		{0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1},
		{1, 2, 3, 4, 5},
		{2, 4, 6, 8, 10},
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Config{K: 2, MaxIterations: 10, MinChanges: 0, Seed: 9})
	if err != nil {
		t.Fatalf("Run with degenerate series: %v", err)
	}
	for _, c := range res.Centers {
		for _, x := range c {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("center contains NaN")
			}
		}
		if math.Abs(norm(c)-1) > 1e-9 {
			t.Fatalf("center norm %v", norm(c))
		}
	}
}

func TestResultAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, _ := clusteredData(t, rng, 2, 5, 30, 0.01)
	res, err := Run(d, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	omega, err := res.Omega(0)
	if err != nil {
		t.Fatal(err)
	}
	if omega != res.Assignment[0] {
		t.Fatalf("Omega(0) = %d, want the assignment %d", omega, res.Assignment[0])
	}
	if _, err := res.Omega(timeseries.SeriesID(99)); err == nil {
		t.Fatal("out-of-range Omega should error")
	}
	if _, err := res.Omega(timeseries.SeriesID(-1)); err == nil {
		t.Fatal("negative Omega should error")
	}
}

func TestRunKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, _ := clusteredData(t, rng, 2, 3, 25, 0.05)
	res, err := Run(d, Config{K: d.NumSeries(), MaxIterations: 5, MinChanges: 0, Seed: 2})
	if err != nil {
		t.Fatalf("K=n should be allowed: %v", err)
	}
	if res.K() != d.NumSeries() {
		t.Fatalf("K() = %d", res.K())
	}
}

// TestCenterMemo: what a clustering memoises about its centers — their
// self-moments and their L-measures — carries the bits of the scalar
// primitives over the center columns, is reduced once however many goroutines
// ask first, and belongs to the object: another Result has its own.
func TestCenterMemo(t *testing.T) {
	d, _ := clusteredData(t, rand.New(rand.NewSource(3)), 3, 6, 48, 0.05)
	res, err := Run(d, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	const callers = 8
	moments := make([]*timeseries.Moments, callers)
	medians := make([][]float64, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			moments[g] = res.CenterMoments()
			locs, err := res.CenterLocations(measure.Median)
			if err != nil {
				t.Error(err)
				return
			}
			medians[g] = locs
		}()
	}
	wg.Wait()
	for g := range moments {
		if moments[g] != moments[0] || &medians[g][0] != &medians[0][0] {
			t.Fatalf("caller %d got its own reduction of the centers", g)
		}
	}

	mo := res.CenterMoments()
	for l, c := range res.Centers {
		mean, _ := measure.MeanOf(c)
		variance, _ := measure.VarianceOf(c)
		sqNorm, _ := measure.DotProductOf(c, c)
		if !sameBits(mo.Sum[l], measure.SumOf(c)) || !sameBits(mo.Mean[l], mean) ||
			!sameBits(mo.Variance[l], variance) || !sameBits(mo.SqNorm[l], sqNorm) {
			t.Fatalf("center %d: moments (%v, %v, %v, %v) differ from the scalar primitives",
				l, mo.Sum[l], mo.Mean[l], mo.Variance[l], mo.SqNorm[l])
		}
	}
	for _, m := range measure.ByClass(measure.LocationClass) {
		locs, err := res.CenterLocations(m)
		if err != nil {
			t.Fatal(err)
		}
		for l, c := range res.Centers {
			want, err := measure.Lookup(m).EvalLocation(c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(locs[l], want) {
				t.Fatalf("%v of center %d = %v, EvalLocation gives %v", m, l, locs[l], want)
			}
		}
	}
	if _, err := res.CenterLocations(measure.Covariance); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("CenterLocations(covariance): err = %v, want ErrUnknownMeasure", err)
	}
	if _, err := (&Result{Centers: [][]float64{{}}}).CenterLocations(measure.Mean); !errors.Is(err, measure.ErrEmptyInput) {
		t.Fatalf("CenterLocations of an empty center: err = %v, want ErrEmptyInput", err)
	}

	// A clustering with other centers is another object with its own memo.
	moved := &Result{Centers: [][]float64{{1, 2, 6}}, Assignment: []int{0}}
	if got, _ := moved.CenterLocations(measure.Mean); len(got) != 1 || got[0] != 3 || moved.CenterMoments().Sum[0] != 9 {
		t.Fatalf("a second clustering read %v / %+v", got, moved.CenterMoments())
	}
}

// scaled returns 2^j·d.
func scaled(t testing.TB, d *timeseries.DataMatrix, j int) *timeseries.DataMatrix {
	t.Helper()
	cols := make([][]float64, d.NumSeries())
	for v := range cols {
		s, _ := d.Series(timeseries.SeriesID(v))
		cols[v] = make([]float64, len(s))
		for i, x := range s {
			cols[v][i] = math.Ldexp(x, j)
		}
	}
	out, err := timeseries.NewDataMatrix(cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunScaleEquivariant: AFCLST is scale-free, and so is Run to the bit —
// scaling the data by 2^j moves no assignment and no center bit, however far
// j pushes the member Gram past overflow (2⁵¹⁵) or underflow (2⁻⁵⁶⁵).
func TestRunScaleEquivariant(t *testing.T) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 24, NumSamples: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Seed: 1}
	base, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{-565, -300, 0, 300, 515} {
		got, err := Run(scaled(t, d, j), cfg)
		if err != nil {
			t.Fatalf("2^%d: %v", j, err)
		}
		for v := range base.Assignment {
			if got.Assignment[v] != base.Assignment[v] {
				t.Fatalf("2^%d: series %d in cluster %d, want %d (sizes %v, want %v)",
					j, v, got.Assignment[v], base.Assignment[v], got.Sizes(), base.Sizes())
			}
		}
		for l, c := range got.Centers {
			for i, x := range c {
				if math.IsNaN(x) || math.Float64bits(x) != math.Float64bits(base.Centers[l][i]) {
					t.Fatalf("2^%d: center %d sample %d = %v, want %v", j, l, i, x, base.Centers[l][i])
				}
			}
		}
	}
}

// TestRunAllocations: a Run allocates its workspace once — nothing per
// (series, center) and nothing per round beyond the fan-out and a buffer that
// grows.
func TestRunAllocations(t *testing.T) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 168, NumSamples: 360, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(d, Config{K: 6, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 800 {
		t.Fatalf("Run made %.0f allocations, want at most 800", allocs)
	}
	t.Logf("%.0f allocations per Run", allocs)
}

// BenchmarkRun times one clustering of the stream_steady and stream_churn
// windows' shapes.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name  string
		stock bool
		n, m  int
	}{{"sensor168x360", false, 168, 360}, {"stock128x720", true, 128, 720}} {
		var d *timeseries.DataMatrix
		var err error
		if c.stock {
			d, err = dataset.GenerateStock(dataset.StockConfig{NumSeries: c.n, NumSamples: c.m, Seed: 1})
		} else {
			d, err = dataset.GenerateSensor(dataset.SensorConfig{NumSeries: c.n, NumSamples: c.m, Seed: 1})
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(d, Config{K: 6, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
