package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinity/internal/dataset"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// The reference oracle: AFCLST by the textbook route — per (series, center)
// the projection and residual as vectors and their scaled norm, per cluster a
// row-major member matrix, its Gram matrix by a strided loop, power iteration
// with freshly allocated vectors and a row-major matrix-vector map-back.  Run
// must reproduce it bit for bit.

func refDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("refDot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

func refNorm(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			ssq = 1 + ssq*(scale/ax)*(scale/ax)
			scale = ax
		} else {
			ssq += (ax / scale) * (ax / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

func refNormalize(v []float64) []float64 {
	out := make([]float64, len(v))
	n := refNorm(v)
	if n == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

func refSubVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// refProject is the orthogonal projection ((r·x)/(r·r))·r; onto a zero
// direction it is the zero vector.
func refProject(x, r []float64) []float64 {
	rr := refDot(r, r)
	out := make([]float64, len(x))
	if rr == 0 {
		return out
	}
	alpha := refDot(r, x) / rr
	for i, v := range r {
		out[i] = alpha * v
	}
	return out
}

func refProjectionError(x, r []float64) float64 {
	return refNorm(refSubVec(x, refProject(x, r)))
}

// rowMajor is a dense row-major matrix.
type rowMajor struct {
	rows, cols int
	data       []float64
}

func refFromColumns(cols [][]float64) *rowMajor {
	a := &rowMajor{rows: len(cols[0]), cols: len(cols), data: make([]float64, len(cols[0])*len(cols))}
	for j, c := range cols {
		for i, v := range c {
			a.data[i*a.cols+j] = v
		}
	}
	return a
}

func (a *rowMajor) mulVec(x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		var sum float64
		for j, v := range a.data[i*a.cols : (i+1)*a.cols] {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out
}

// refDominantLeftSingularVector is power iteration on AᵀA mapped back
// through A.
func refDominantLeftSingularVector(a *rowMajor) []float64 {
	m, n := a.rows, a.cols
	if n == 1 {
		col := make([]float64, m)
		for i := range col {
			col[i] = a.data[i]
		}
		return refNormalize(col)
	}
	g := &rowMajor{rows: n, cols: n, data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var sum float64
			for r := 0; r < m; r++ {
				sum += a.data[r*n+i] * a.data[r*n+j]
			}
			g.data[i*n+j] = sum
			g.data[j*n+i] = sum
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n)+float64(i))
	}
	v = refNormalize(v)
	const maxIter = 500
	const tol = 1e-13
	for iter := 0; iter < maxIter; iter++ {
		next := g.mulVec(v)
		norm := refNorm(next)
		if norm == 0 {
			out := make([]float64, m)
			out[0] = 1
			return out
		}
		for i := range next {
			next[i] /= norm
		}
		var diff float64
		for i := range next {
			if d := math.Abs(math.Abs(next[i]) - math.Abs(v[i])); d > diff {
				diff = d
			}
		}
		v = next
		if diff < tol {
			break
		}
	}
	av := a.mulVec(v)
	norm := refNorm(av)
	if norm == 0 {
		out := make([]float64, m)
		out[0] = 1
		return out
	}
	for i := range av {
		av[i] /= norm
	}
	return av
}

func refRandomUnitColumn(d *timeseries.DataMatrix, rng *rand.Rand) []float64 {
	n := d.NumSeries()
	for attempt := 0; attempt < n; attempt++ {
		s, err := d.Series(timeseries.SeriesID(rng.Intn(n)))
		if err != nil {
			continue
		}
		if refNorm(s) > 0 {
			return refNormalize(s)
		}
	}
	out := make([]float64, d.NumSamples())
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return refNormalize(out)
}

// referenceRun is AFCLST by the textbook route.
func referenceRun(d *timeseries.DataMatrix, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumSeries()
	cfg = cfg.withDefaults()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([][]float64, cfg.K)
	perm := rng.Perm(n)
	nextCol := 0
	for l := 0; l < cfg.K; l++ {
		centers[l] = nil
		for nextCol < len(perm) {
			s, _ := d.Series(timeseries.SeriesID(perm[nextCol]))
			nextCol++
			if refNorm(s) > 0 {
				centers[l] = refNormalize(s)
				break
			}
		}
		if centers[l] == nil {
			centers[l] = refRandomUnitColumn(d, rng)
		}
	}
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	projErrors := make([]float64, n)
	result := &Result{Centers: centers, Assignment: assignment, ProjectionErrors: projErrors}
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		result.Iterations = iter + 1
		blocks := par.Blocks(n, cfg.Parallelism)
		blockChanges := make([]int, len(blocks))
		if err := par.Do(len(blocks), cfg.Parallelism, func(b int) error {
			for v := blocks[b].Lo; v < blocks[b].Hi; v++ {
				s, err := d.Series(timeseries.SeriesID(v))
				if err != nil {
					return err
				}
				best, bestErr := 0, refProjectionError(s, centers[0])
				for l := 1; l < cfg.K; l++ {
					if e := refProjectionError(s, centers[l]); e < bestErr {
						best, bestErr = l, e
					}
				}
				if assignment[v] != best {
					blockChanges[b]++
					assignment[v] = best
				}
				projErrors[v] = bestErr
			}
			return nil
		}); err != nil {
			return nil, err
		}
		changes := 0
		for _, c := range blockChanges {
			changes += c
		}
		if changes <= cfg.MinChanges {
			result.Converged = true
			break
		}
		members := make([][]timeseries.SeriesID, cfg.K)
		for v, c := range assignment {
			members[c] = append(members[c], timeseries.SeriesID(v))
		}
		var nonEmpty []int
		for l := 0; l < cfg.K; l++ {
			if len(members[l]) == 0 {
				centers[l] = refRandomUnitColumn(d, rng)
			} else {
				nonEmpty = append(nonEmpty, l)
			}
		}
		if err := par.Do(len(nonEmpty), cfg.Parallelism, func(i int) error {
			l := nonEmpty[i]
			cols := make([][]float64, len(members[l]))
			for i, v := range members[l] {
				cols[i], _ = d.Series(v)
			}
			centers[l] = refDominantLeftSingularVector(refFromColumns(cols))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// sameResult reports where two clusterings differ in bits, or "".
func sameResult(got, want *Result) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("iterations/converged %d/%v, want %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for v := range want.Assignment {
		if got.Assignment[v] != want.Assignment[v] {
			return fmt.Sprintf("series %d in cluster %d, want %d", v, got.Assignment[v], want.Assignment[v])
		}
		if math.Float64bits(got.ProjectionErrors[v]) != math.Float64bits(want.ProjectionErrors[v]) {
			return fmt.Sprintf("series %d projection error %v, want %v", v, got.ProjectionErrors[v], want.ProjectionErrors[v])
		}
	}
	for l := range want.Centers {
		for i := range want.Centers[l] {
			if math.Float64bits(got.Centers[l][i]) != math.Float64bits(want.Centers[l][i]) {
				return fmt.Sprintf("center %d sample %d = %v, want %v", l, i, got.Centers[l][i], want.Centers[l][i])
			}
		}
	}
	return ""
}

// raceDetector is set under -race, where the 670 × 720 reference (a minute
// and a half of instrumented allocation) is left to the plain run.
var raceDetector bool

// parityData is the data of the four benchmark workloads — sensor 168 × 360
// (stream_steady, serve_cached, sharded_p2) and stock 128 × 720
// (stream_churn) — plus the paper's sensor 670 × 720, which -short and -race
// skip.
func parityData(t testing.TB, seed int64) map[string]*timeseries.DataMatrix {
	t.Helper()
	out := map[string]*timeseries.DataMatrix{}
	for _, c := range []struct {
		name  string
		stock bool
		n, m  int
	}{{"sensor168x360", false, 168, 360}, {"stock128x720", true, 128, 720}, {"sensor670x720", false, 670, 720}} {
		if (testing.Short() || raceDetector) && c.n > 200 {
			continue
		}
		var d *timeseries.DataMatrix
		var err error
		if c.stock {
			d, err = dataset.GenerateStock(dataset.StockConfig{NumSeries: c.n, NumSamples: c.m, Seed: seed})
		} else {
			d, err = dataset.GenerateSensor(dataset.SensorConfig{NumSeries: c.n, NumSamples: c.m, Seed: seed})
		}
		if err != nil {
			t.Fatal(err)
		}
		out[c.name] = d
	}
	return out
}

// TestReferenceParity: on the workloads' data at seeds 1–4, k ∈ {6, 14} and
// Parallelism ∈ {1, 2, 8}, Run equals the reference bit for bit in every
// center, assignment and projection error, and its guard never falls back.
func TestReferenceParity(t *testing.T) {
	decisions := 0
	for seed := int64(1); seed <= 4; seed++ {
		for name, d := range parityData(t, seed) {
			for _, k := range []int{6, 14} {
				want, err := referenceRun(d, Config{K: k, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{1, 2, 8} {
					got, err := Run(d, Config{K: k, Seed: seed, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameResult(got, want); diff != "" {
						t.Fatalf("%s seed %d k %d P%d: %s", name, seed, k, p, diff)
					}
					if got.GuardFallbacks != 0 {
						t.Errorf("%s seed %d k %d P%d: %d guard fallbacks, want 0", name, seed, k, p, got.GuardFallbacks)
					}
					decisions += got.Iterations * d.NumSeries()
				}
			}
		}
	}
	t.Logf("%d guarded decisions, 0 fallbacks", decisions)
}

// The vector numerics: the production helpers against the oracle and the
// textbook properties.

func TestDotAndNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := dot(a, b); got != 12 {
		t.Fatalf("dot = %v, want 12", got)
	}
	if got := norm([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm = %v, want 5", got)
	}
	if got := norm(nil); got != 0 {
		t.Fatalf("norm(nil) = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 1+rng.Intn(40))
		for i := range x {
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
			if rng.Intn(5) == 0 {
				x[i] = 0
			}
		}
		if math.Float64bits(norm(x)) != math.Float64bits(refNorm(x)) ||
			math.Float64bits(dot(x, x)) != math.Float64bits(refDot(x, x)) {
			t.Fatalf("norm/dot of %v differ from the oracle", x)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := normalize([]float64{3, 4})
	if math.Abs(v[0]-0.6) > 1e-12 || math.Abs(v[1]-0.8) > 1e-12 {
		t.Fatalf("normalize = %v", v)
	}
	z := normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("normalize of zero vector = %v, want unchanged", z)
	}
	in := []float64{1e-300, -3e-301, 2e-300}
	want := refNormalize(in)
	normalizeInto(in, in)
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-place normalize %v, want %v", in, want)
		}
	}
}

func TestNormOverflowResistance(t *testing.T) {
	big := 1e200
	got := norm([]float64{big, big})
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("norm with large values = %v, want %v", got, want)
	}
	tiny := 1e-200
	if got := norm([]float64{tiny, tiny}); math.Abs(got-tiny*math.Sqrt2)/(tiny*math.Sqrt2) > 1e-12 {
		t.Fatalf("norm with tiny values = %v", got)
	}
}

func TestProjectAndProjectionError(t *testing.T) {
	x := []float64{1, 1}
	r := []float64{1, 0}
	if p := refProject(x, r); p[0] != 1 || p[1] != 0 {
		t.Fatalf("project = %v", p)
	}
	if got := projectionError(x, r); math.Abs(got-1) > 1e-12 {
		t.Fatalf("projectionError = %v, want 1", got)
	}
	// Projection onto the zero direction is the zero vector.
	if got := projectionError(x, []float64{0, 0}); got != norm(x) {
		t.Fatalf("projection error onto zero = %v, want ‖x‖", got)
	}
	// Projecting a vector onto itself has zero error.
	if got := projectionError(x, x); got > 1e-12 {
		t.Fatalf("self projection error = %v", got)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(30)
		x, r := make([]float64, m), make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(100)-50)
			r[i] = rng.NormFloat64()
		}
		if rng.Intn(4) == 0 {
			copy(x, r)
		}
		if got, want := projectionError(x, r), refProjectionError(x, r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("projectionError = %v, oracle %v", got, want)
		}
	}
}

// Property: the projection residual is orthogonal to the direction, and the
// Pythagorean identity ‖x‖² = ‖proj‖² + ‖resid‖² holds.
func TestProjectionPythagoreanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		x := make([]float64, n)
		r := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			r[i] = rng.NormFloat64()
		}
		p := refProject(x, r)
		resid := refSubVec(x, p)
		if math.Abs(dot(resid, r)) > 1e-8*(1+norm(x)*norm(r)) {
			return false
		}
		lhs := dot(x, x)
		rhs := dot(p, p) + dot(resid, resid)
		e := projectionError(x, r)
		return math.Abs(lhs-rhs) <= 1e-8*(1+lhs) && math.Abs(e*e-dot(resid, resid)) <= 1e-8*(1+lhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// dominantOf runs one update over a single cluster holding every column.
func dominantOf(t *testing.T, cols [][]float64) []float64 {
	t.Helper()
	d, err := timeseries.NewDataMatrix(cols)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkspace(d, Config{K: 1})
	w.group(make([]int, len(cols)))
	dst := make([]float64, d.NumSamples())
	w.update(0, dst)
	return dst
}

func randomColumns(rng *rand.Rand, m, n int) [][]float64 {
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, m)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	return cols
}

func TestDominantLeftSingularVector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cols := randomColumns(rng, 30, 5)
	u := dominantOf(t, cols)
	if math.Abs(norm(u)-1) > 1e-9 {
		t.Fatalf("dominant vector not unit length: %v", norm(u))
	}
	want := refDominantLeftSingularVector(refFromColumns(cols))
	for i := range want {
		if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d = %v, oracle %v", i, u[i], want[i])
		}
	}
	// u maximizes ‖Mᵀu‖ over unit vectors: no random direction beats it.
	spread := func(x []float64) float64 {
		var s float64
		for _, c := range cols {
			p := dot(c, x)
			s += p * p
		}
		return s
	}
	top := spread(u)
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, len(u))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if s := spread(normalize(x)); s > top*(1+1e-9) {
			t.Fatalf("direction with ‖Mᵀx‖² = %v beats the dominant one's %v", s, top)
		}
	}
}

func TestDominantLeftSingularVectorSingleColumn(t *testing.T) {
	u := dominantOf(t, [][]float64{{3, 4}})
	if math.Abs(u[0]-0.6) > 1e-12 || math.Abs(u[1]-0.8) > 1e-12 {
		t.Fatalf("got %v, want [0.6 0.8]", u)
	}
}

func TestDominantLeftSingularVectorZeroMatrix(t *testing.T) {
	u := dominantOf(t, [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}})
	if math.Abs(norm(u)-1) > 1e-12 || u[0] != 1 {
		t.Fatalf("zero-matrix fallback should be e₀, got %v", u)
	}
}

// TestDominantLeftSingularVectorEmpty: a cluster left without members has no
// member matrix to take a singular vector of; Run re-seeds its center from a
// random column, as the reference does.  Every series here is a power-of-two
// multiple of one direction, so both initial centers are the same bits, every
// assignment is an exact tie (the guard must defer each one to the exact
// route, which keeps the lower index) and cluster 1 is empty at the update.
func TestDominantLeftSingularVectorEmpty(t *testing.T) {
	base := []float64{1, -2, 3, 0.5, 4}
	series := make([][]float64, 12)
	for v := range series {
		series[v] = make([]float64, len(base))
		for i, x := range base {
			series[v][i] = math.Ldexp(x, v%4)
		}
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 2, MaxIterations: 1, Seed: 3}
	got, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(got, want); diff != "" {
		t.Fatal(diff)
	}
	if sizes := got.Sizes(); sizes[1] != 0 || got.Converged {
		t.Fatalf("sizes %v, converged %v: want cluster 1 empty at the update", sizes, got.Converged)
	}
	if got.GuardFallbacks != d.NumSeries() {
		t.Fatalf("%d guard fallbacks, want every one of the %d tied assignments", got.GuardFallbacks, d.NumSeries())
	}
	for _, c := range got.Centers {
		if math.Abs(norm(c)-1) > 1e-12 {
			t.Fatalf("center %v is not unit length", c)
		}
	}
}
