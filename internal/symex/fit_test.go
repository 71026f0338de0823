package symex

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/mat"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// pairMatrices returns the generic-route inputs of one relationship: the
// pivot pair matrix O_p and the target [s_common, s_other].
func pairMatrices(t testing.TB, d *timeseries.DataMatrix, res *Result, pair timeseries.Pair, p Pivot) (op, target *mat.Matrix) {
	t.Helper()
	op, err := res.PivotMatrix(d, p)
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := pair.Other(p.Common)
	if err != nil {
		t.Fatal(err)
	}
	common, _ := d.Series(p.Common)
	other, _ := d.Series(otherID)
	target, err = mat.NewFromColumns(common, other)
	if err != nil {
		t.Fatal(err)
	}
	return op, target
}

// momentOracle is the moment-form fit of one relationship assembled from the
// scalar primitives — the bits the window and centre memos, the cross pass
// and CovBlock carry — through the production solve.  ok is false where the
// exactness guard sends the pivot to the kernel.
func momentOracle(common, centre, other []float64) (tr *affine.Transform, ok bool) {
	vs, _ := measure.VarianceOf(common)
	vr, _ := measure.VarianceOf(centre)
	csr, _ := measure.CovarianceOf(common, centre)
	csy, _ := measure.CovarianceOf(common, other)
	cry, _ := measure.CovarianceOf(centre, other)
	ms, _ := measure.MeanOf(common)
	mr, _ := measure.MeanOf(centre)
	my, _ := measure.MeanOf(other)
	mp, ok := newMomentPivot(len(common), [3]float64{vs, csr, vr}, ms, mr)
	if !ok {
		return nil, false
	}
	as, ar, b := mp.solve(csy, cry, my)
	if !finite(as) || !finite(ar) || !finite(b) {
		return nil, false
	}
	return &affine.Transform{A: [2][2]float64{{1, as}, {0, ar}}, B: [2]float64{0, b}}, true
}

// fitColumns returns the three columns of one relationship's fit.
func fitColumns(t testing.TB, d *timeseries.DataMatrix, clustering *cluster.Result, pair timeseries.Pair, p Pivot) (common, centre, other []float64) {
	t.Helper()
	common, centre, err := pivotColumns(d, clustering, p)
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := pair.Other(p.Common)
	if err != nil {
		t.Fatal(err)
	}
	other, _ = d.Series(otherID)
	return common, centre, other
}

// expectedFit is the oracle of one relationship: under SYMEX+ (batch) the
// moment form where the guard admits the pivot, otherwise the generic
// affine.Fit.  It reports whether the kernel's route was taken.
func expectedFit(t testing.TB, d *timeseries.DataMatrix, clustering *cluster.Result, pair timeseries.Pair, p Pivot, batch bool) (tr *affine.Transform, kernel bool) {
	t.Helper()
	common, centre, other := fitColumns(t, d, clustering, pair, p)
	if batch {
		if tr, ok := momentOracle(common, centre, other); ok {
			return tr, false
		}
	}
	op, target := pairMatrices(t, d, &Result{Clustering: clustering}, pair, p)
	tr, err := affine.Fit(op, target)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(tr), true
}

// exactFit returns the least-squares coefficients (a_s, a_r, b) of other on
// [common, centre, 1] from the centred normal equations evaluated in 256-bit
// arithmetic — the reference the float64 routes are measured against.
func exactFit(common, centre, other []float64) (as, ar, b float64) {
	const prec = 256
	num := func(v float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(v) }
	mean := func(x []float64) *big.Float {
		sum := num(0)
		for _, v := range x {
			sum.Add(sum, num(v))
		}
		return sum.Quo(sum, num(float64(len(x))))
	}
	cols := [3][]float64{common, centre, other}
	var means [3]*big.Float
	for i, c := range cols {
		means[i] = mean(c)
	}
	// cross[i][j] = Σ (x_i − x̄_i)(x_j − x̄_j)
	var cross [3][3]*big.Float
	for i := range cols {
		for j := i; j < 3; j++ {
			sum := num(0)
			for k := range common {
				di := num(cols[i][k])
				di.Sub(di, means[i])
				dj := num(cols[j][k])
				dj.Sub(dj, means[j])
				sum.Add(sum, di.Mul(di, dj))
			}
			cross[i][j], cross[j][i] = sum, sum
		}
	}
	mul := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(x, y) }
	sub := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Sub(x, y) }
	det := sub(mul(cross[0][0], cross[1][1]), mul(cross[0][1], cross[0][1]))
	bas := sub(mul(cross[1][1], cross[0][2]), mul(cross[0][1], cross[1][2]))
	bar := sub(mul(cross[0][0], cross[1][2]), mul(cross[0][1], cross[0][2]))
	bas.Quo(bas, det)
	bar.Quo(bar, det)
	bb := sub(sub(means[2], mul(bas, means[0])), mul(bar, means[1]))
	as, _ = bas.Float64()
	ar, _ = bar.Float64()
	b, _ = bb.Float64()
	return as, ar, b
}

// requireWithinFitBound requires a moment-form transform to have the exact
// canonical first column a₁ = (1, 0), b₁ = 0 and to agree with the exact least
// squares fit of the same columns within the bound tau's comment derives, in
// σ_v units: 2·(1 + 2‖â‖∞)·η / (1 − ρ²) on each slope with
// η = (m + 2)·u + (m·u·κ)², κ the columns' largest |mean|/σ, and on b the
// slopes' error times the means plus b's own rounding.  (The generic fit is
// no yardstick here: on windows whose means dwarf their spread its uncentred
// design is itself off by 1e-12 σ_v, which its first column shows.)  It
// returns the largest slope error in σ_v units.
func requireWithinFitBound(t testing.TB, label string, common, centre, other []float64, got affine.Transform) float64 {
	t.Helper()
	if got.A[0][0] != 1 || got.A[1][0] != 0 || got.B[0] != 0 {
		t.Fatalf("%s: first column %v, %v, b₁ %v, want exactly 1, 0, 0", label, got.A[0][0], got.A[1][0], got.B[0])
	}
	vs, _ := measure.VarianceOf(common)
	vr, _ := measure.VarianceOf(centre)
	vy, _ := measure.VarianceOf(other)
	csr, _ := measure.CovarianceOf(common, centre)
	ms, _ := measure.MeanOf(common)
	mr, _ := measure.MeanOf(centre)
	my, _ := measure.MeanOf(other)
	ss, sr, sy := math.Sqrt(vs), math.Sqrt(vr), math.Sqrt(vy)
	as, ar, b := exactFit(common, centre, other)
	rho := csr / (ss * sr)
	oneMinusRho2 := 1 - rho*rho
	m := float64(len(common))
	kappa := max(math.Abs(ms)/ss, math.Abs(mr)/sr, math.Abs(my)/sy)
	eta := (m+2)*0x1p-53 + (m*0x1p-53*kappa)*(m*0x1p-53*kappa)
	aHat := max(math.Abs(as)*ss/sy, math.Abs(ar)*sr/sy)
	bound := 2 * (1 + 2*aHat) * eta / oneMinusRho2
	boundB := bound*(math.Abs(ms)/ss+math.Abs(mr)/sr) + 2*eta*(math.Abs(my)+math.Abs(as*ms)+math.Abs(ar*mr))/sy
	ds := math.Abs(got.A[0][1]-as) * ss / sy
	dr := math.Abs(got.A[1][1]-ar) * sr / sy
	db := math.Abs(got.B[1]-b) / sy
	if !(ds <= bound) || !(dr <= bound) || !(db <= boundB) {
		t.Fatalf("%s: moment form %v, exact fit %v %v %v: slopes off by %.3g, %.3g and b by %.3g σ_v, bounds %.3g, %.3g (1 − ρ² = %.3g)",
			label, got, as, ar, b, ds, dr, db, bound, boundB, oneMinusRho2)
	}
	return max(ds, dr)
}

// requireFits holds every relationship of res (those in only, when non-nil) to
// its route: the bits of expectedFit, and for a moment-form one agreement with
// the exact fit within requireWithinFitBound.  It returns how many
// relationships took the moment form and which pivots took the kernel.
func requireFits(t testing.TB, label string, d *timeseries.DataMatrix, res *Result, only map[timeseries.Pair]bool, batch bool) (moment int, kernel map[Pivot]bool) {
	t.Helper()
	kernel = map[Pivot]bool{}
	for rel := range res.All() {
		pair := rel.Pair
		if only != nil && !only[pair] {
			continue
		}
		want, viaKernel := expectedFit(t, d, res.Clustering, pair, rel.Pivot, batch)
		if transformBits(rel.Transform) != transformBits(*want) {
			t.Fatalf("%s: pair %v pivot %v (kernel=%v): transform %v, oracle %v", label, pair, rel.Pivot, viaKernel, rel.Transform, want)
		}
		if viaKernel {
			kernel[rel.Pivot] = true
			continue
		}
		moment++
		common, centre, other := fitColumns(t, d, res.Clustering, pair, rel.Pivot)
		requireWithinFitBound(t, fmt.Sprintf("%s: pair %v pivot %v", label, pair, rel.Pivot), common, centre, other, rel.Transform)
	}
	return moment, kernel
}

// TestResultsMatchGenericFit: plain SYMEX, and every pivot the exactness guard
// sends to the kernel, produce the coefficients of the generic mat/affine
// route bit for bit; every other SYMEX+ relationship is the moment form — the
// scalar-primitive oracle's bits, within the derived bound of the exact least
// squares fit — in Compute and in full and selective Refits.  A hand-made window puts a
// pivot on every branch of the guard.
func TestResultsMatchGenericFit(t *testing.T) {
	d := correlatedData(t, 41, 3, 14, 90, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, cache := range []bool{false, true} {
		res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != d.NumPairs() {
			t.Fatalf("cache=%v: %d relationships, want %d", cache, res.Len(), d.NumPairs())
		}
		// A pivot whose common series is the only other member of its
		// cluster has 1 − ρ² ≈ 1e-15 and keeps the kernel.
		moment, kernel := requireFits(t, fmt.Sprintf("Compute cache=%v", cache), d, res, nil, cache)
		pinvs := len(kernel)
		if !cache {
			pinvs = res.Len()
		}
		if cache == (moment == 0) || res.Stats.PseudoInverseComputations != pinvs {
			t.Fatalf("cache=%v: %d moment-form fits, %d pseudo-inverses for %d kernel pivots", cache, moment, res.Stats.PseudoInverseComputations, len(kernel))
		}
		prev = res
	}

	next := slideData(t, d, 5, 9)
	full, _, err := Refit(next, prev, RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireFits(t, "full Refit", next, full, nil, true)

	stale := map[timeseries.Pair]bool{}
	for i, a := range prev.AssignmentList() {
		if i%3 == 0 {
			stale[a.Pair] = true
		}
	}
	partial, rs, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != len(stale) || rs.Reused != prev.Len()-len(stale) {
		t.Fatalf("selective refit stats %+v with %d stale pairs", rs, len(stale))
	}
	requireFits(t, "selective Refit", next, partial, stale, true)

	// Two samples leave the centred system underdetermined and three put
	// every y in the design's span: every pivot keeps the kernel.
	for _, m := range []int{2, 3} {
		dm := correlatedData(t, 48, 2, 6, m, 0.05)
		few, err := Compute(dm, Options{Cluster: cluster.Config{K: 2, Seed: 1}, CachePseudoInverse: true})
		if err != nil {
			t.Fatal(err)
		}
		if moment, _ := requireFits(t, fmt.Sprintf("m=%d", m), dm, few, nil, true); moment != 0 || few.Stats.PseudoInverseComputations != few.Stats.NumPivots {
			t.Fatalf("m=%d: %d moment-form fits, %d pseudo-inverses for %d pivots", m, moment, few.Stats.PseudoInverseComputations, few.Stats.NumPivots)
		}
	}

	// Two branches a single relationship reaches: a centre that is not the
	// other series' own (its centre covariance is not the one the moment form
	// needs), and a slope that overflows (a common series of spread 1e-9
	// against another of scale 1e300).  Both keep the kernel's bits.
	rng := rand.New(rand.NewSource(50))
	huge, tiny := normals(rng, 90, 1e300), normals(rng, 90, 1e-9)
	for name, c := range map[string]struct {
		common, centre, other []float64
		ownCentre             bool
	}{
		"foreign centre": {normals(rng, 90, 1), normals(rng, 90, 1), normals(rng, 90, 1), false},
		"overflow":       {tiny, normals(rng, 90, 1), huge, true},
	} {
		got, rs := fitOne(t, c.common, c.centre, c.other, c.ownCentre)
		if _, want := oracleFit(t, c.common, c.centre, c.other); transformBits(got) != transformBits(*want) || rs.PivotInverses != 1 {
			t.Fatalf("%s: transform %v (%d pseudo-inverses), kernel %v", name, got, rs.PivotInverses, want)
		}
	}

	// The guard's branches, one pivot each (common series, cluster).
	dg, guarded := guardData(t, 90)
	res, rs, err := Refit(dg, guarded, RefitOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, kernel := requireFits(t, "guard branches", dg, res, nil, true)
	for p, want := range map[Pivot]bool{
		{Common: 0, Cluster: 0}: true,  // constant common series
		{Common: 5, Cluster: 1}: true,  // constant centre
		{Common: 2, Cluster: 2}: true,  // common series equal to its centre
		{Common: 4, Cluster: 4}: true,  // 1 − ρ² = tau/2
		{Common: 3, Cluster: 3}: false, // 1 − ρ² = 2·tau: just past the guard
		{Common: 1, Cluster: 0}: false, // an ordinary pivot
	} {
		if slices.Index(res.Layout().Pivots(), p) < 0 || kernel[p] != want {
			t.Fatalf("pivot %v: kernel=%v, want %v", p, kernel[p], want)
		}
	}
	if rs.PivotInverses != len(kernel) || res.Stats.PseudoInverseComputations != len(kernel) {
		t.Fatalf("%d pseudo-inverses reported (%d in Stats), %d pivots took the kernel", rs.PivotInverses, res.Stats.PseudoInverseComputations, len(kernel))
	}
}

// guardData returns an m-sample window of ten series and a result over a
// hand-made layout (pair (u, v) keeps u as its common series) whose pivots hit
// every branch of the moment form's guard: series 0 is constant, centre 1 is
// constant, centre 2 is series 2, and centres 3 and 4 are series 3 and 4 plus
// just enough orthogonal noise that 1 − ρ² is 2·tau and tau/2.
func guardData(t testing.TB, m int) (*timeseries.DataMatrix, *Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(49))
	series := make([][]float64, 10)
	for v := range series {
		series[v] = normals(rng, m, 1+float64(v))
		for i := range series[v] {
			series[v][i] += float64(v) + math.Sin(float64(i)/7)
		}
	}
	series[0] = constant(m, 3)
	// nearly returns x plus noise orthogonal to its centred part, scaled so the
	// pair's 1 − ρ² is q.
	nearly := func(x []float64, q float64) []float64 {
		mx, _ := measure.MeanOf(x)
		z := normals(rng, m, 1)
		mz, _ := measure.MeanOf(z)
		var xz, xx float64
		for i := range z {
			z[i] -= mz
			xz += (x[i] - mx) * z[i]
			xx += (x[i] - mx) * (x[i] - mx)
		}
		for i := range z {
			z[i] -= xz / xx * (x[i] - mx)
		}
		vx, _ := measure.VarianceOf(x)
		vz, _ := measure.VarianceOf(z)
		eps := math.Sqrt(q * vx / (vz * (1 - q)))
		out := make([]float64, m)
		for i := range out {
			out[i] = x[i] + eps*z[i]
		}
		return out
	}
	clustering := &cluster.Result{
		Centers: [][]float64{
			normals(rng, m, 1),
			constant(m, 0.25),
			slices.Clone(series[2]),
			nearly(series[3], 2*tau),
			nearly(series[4], tau/2),
		},
		Assignment: []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4},
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	var assignments []Assignment
	for _, pair := range d.AllPairs() {
		assignments = append(assignments, Assignment{Pair: pair, Pivot: Pivot{Common: pair.U, Cluster: clustering.Assignment[pair.V]}})
	}
	layout, err := NewLayout(d.NumSeries(), assignments)
	if err != nil {
		t.Fatal(err)
	}
	return d, NewResult(layout, clustering, unfitted(assignments))
}

// unfitted returns a relationship with a zero transform for every assignment:
// the slots of a result that only a full Refit reads.
func unfitted(assignments []Assignment) []*Relationship {
	rels := make([]*Relationship, len(assignments))
	for i, a := range assignments {
		rels[i] = &Relationship{Pair: a.Pair, Pivot: a.Pivot, Flipped: a.Pivot.Common == a.Pair.V}
	}
	return rels
}

// requireSameResult compares everything a consumer can observe of two
// results: relationships by value, every pivot's pair list in order, the
// assignment list and the counters.
func requireSameResult(t testing.TB, label string, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.AssignmentList(), want.AssignmentList()) {
		t.Fatalf("%s: assignment lists differ", label)
	}
	if !reflect.DeepEqual(pivotPairs(got), pivotPairs(want)) {
		t.Fatalf("%s: pivot pair lists differ", label)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d relationships, want %d", label, got.Len(), want.Len())
	}
	for w := range want.All() {
		pair := w.Pair
		g, ok := got.Relationship(pair)
		if !ok {
			t.Fatalf("%s: pair %v missing", label, pair)
		}
		if g.Pair != w.Pair || g.Pivot != w.Pivot || g.Flipped != w.Flipped ||
			transformBits(g.Transform) != transformBits(w.Transform) {
			t.Fatalf("%s: pair %v is %+v %v, want %+v %v", label, pair, g, g.Transform, w, w.Transform)
		}
	}
}

// TestFitsIndependentOfParallelism: pivot batching hands whole pivot groups
// to workers, yet Compute and Refit results — including pair order inside
// every pivot's list — are the same at any worker count.
func TestFitsIndependentOfParallelism(t *testing.T) {
	d := correlatedData(t, 42, 3, 16, 80, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 6, 7)
	for _, cache := range []bool{false, true} {
		var wantCompute, wantFull, wantPartial *Result
		for _, p := range []int{1, 2, 8} {
			label := fmt.Sprintf("cache=%v P=%d", cache, p)
			res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: cache, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			full, _, err := Refit(next, res, RefitOptions{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			stale := map[timeseries.Pair]bool{}
			for i, a := range res.AssignmentList() {
				if i%4 != 1 {
					stale[a.Pair] = true
				}
			}
			partial, _, err := Refit(next, res, RefitOptions{Stale: stale, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if p == 1 {
				wantCompute, wantFull, wantPartial = res, full, partial
				continue
			}
			requireSameResult(t, label+" Compute", res, wantCompute)
			requireSameResult(t, label+" full Refit", full, wantFull)
			requireSameResult(t, label+" selective Refit", partial, wantPartial)
		}
	}
}

// TestRefitBookkeeping pins what Refit shares with and derives from the
// previous result: the layout (assignment list and indexes) is shared by
// pointer, not copied, and every pivot's relationships come back in canonical
// pair order — the order the SCAPE sequence stores keep — whichever of them
// were refit.
func TestRefitBookkeeping(t *testing.T) {
	d := correlatedData(t, 43, 3, 12, 60, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 8, 4)
	stale := map[timeseries.Pair]bool{}
	for i, a := range prev.AssignmentList() {
		if i%2 == 0 {
			stale[a.Pair] = true
		}
	}
	res, _, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout() != prev.Layout() {
		t.Fatal("Refit must share the previous result's layout")
	}
	want := make(map[Pivot][]timeseries.Pair)
	for _, pair := range d.AllPairs() {
		slot, _ := prev.Layout().Slot(pair)
		p := prev.AssignmentList()[slot].Pivot
		want[p] = append(want[p], pair)
	}
	if got := pivotPairs(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("pivot pair lists are not in canonical pair order:\n got %v\nwant %v", got, want)
	}
	for rel := range res.All() {
		if prevRel, _ := prev.Relationship(rel.Pair); (rel == prevRel) == stale[rel.Pair] {
			t.Fatalf("pair %v: stale=%v but shared with the previous result=%v", rel.Pair, stale[rel.Pair], rel == prevRel)
		}
	}
}

// TestRefitAllocations: a full Refit works out of per-worker scratch and the
// window's O(pivots + series) memo — it must not allocate anything
// proportional to the window per relationship (the generic route copied 2·m
// floats per fit).
func TestRefitAllocations(t *testing.T) {
	const m = 4096
	d := correlatedData(t, 44, 2, 40, m, 0.05)
	prev, err := Compute(d, Options{Cluster: cluster.Config{K: 2, Seed: 1}, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 9, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, rs, err := Refit(next, prev, RefitOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != len(prev.AssignmentList()) || res.Len() != rs.Refit {
		t.Fatalf("full refit stats %+v over %d assignments", rs, len(prev.AssignmentList()))
	}
	const scratch = 6 * m * 8 // one worker's kernel buffers, were a pivot to take the kernel
	perRelationship := (float64(after.TotalAlloc-before.TotalAlloc) - scratch) / float64(rs.Refit)
	if perRelationship >= 256 {
		t.Fatalf("full Refit allocated %.0f B per relationship beyond scratch at m=%d, want < 256", perRelationship, m)
	}
}

// TestFitShapeErrors: the window and clustering shape checks of the generic
// route survive — a one-sample window, a cluster center of the wrong length
// and a pivot naming an unknown cluster all fail, at any parallelism.
func TestFitShapeErrors(t *testing.T) {
	oneSample, err := timeseries.NewDataMatrix([][]float64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	unit := &cluster.Result{Centers: [][]float64{{1}}, Assignment: []int{0, 0, 0}}
	d := correlatedData(t, 45, 2, 8, 30, 0.02)
	good, err := cluster.Run(d, cluster.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shortCenter := &cluster.Result{Centers: [][]float64{good.Centers[0], good.Centers[1][:29]}, Assignment: good.Assignment}
	missingCenter := &cluster.Result{Centers: good.Centers[:1], Assignment: good.Assignment}

	for _, p := range []int{1, 4} {
		for _, cache := range []bool{false, true} {
			opts := Options{CachePseudoInverse: cache, Parallelism: p}
			opts.Clustering = unit
			if _, err := Compute(oneSample, opts); !errors.Is(err, affine.ErrBadShape) {
				t.Fatalf("P=%d cache=%v: one-sample window: err = %v, want affine.ErrBadShape", p, cache, err)
			}
			opts.Clustering = shortCenter
			if _, err := Compute(d, opts); !errors.Is(err, timeseries.ErrShapeMismatch) {
				t.Fatalf("P=%d cache=%v: short center: err = %v, want timeseries.ErrShapeMismatch", p, cache, err)
			}
			opts.Clustering = missingCenter
			if _, err := Compute(d, opts); err == nil || !strings.Contains(err.Error(), "unknown cluster") {
				t.Fatalf("P=%d cache=%v: missing center: err = %v, want an unknown-cluster error", p, cache, err)
			}
		}
		prev, err := Compute(d, Options{Clustering: good, CachePseudoInverse: true})
		if err != nil {
			t.Fatal(err)
		}
		prev.Clustering = shortCenter
		if _, _, err := Refit(d, prev, RefitOptions{Parallelism: p}); !errors.Is(err, timeseries.ErrShapeMismatch) {
			t.Fatalf("P=%d: Refit with a short center: err = %v, want timeseries.ErrShapeMismatch", p, err)
		}
		prev.Clustering = missingCenter
		if _, _, err := Refit(d, prev, RefitOptions{Parallelism: p}); err == nil || !strings.Contains(err.Error(), "unknown cluster") {
			t.Fatalf("P=%d: Refit with a missing center: err = %v, want an unknown-cluster error", p, err)
		}
	}
}
