// Package cluster implements AFCLST, the affine clustering algorithm of
// Section 3.3 (Algorithm 1) of the paper.
//
// AFCLST partitions the n time series of a data matrix into k clusters such
// that every series is well approximated by a scalar multiple of its cluster
// center.  The assignment step minimizes the orthogonal projection error of a
// series onto the (unit-length) cluster center; the update step replaces each
// center with the dominant left singular vector of the matrix formed by its
// members — the direction minimizing the sum of squared projection errors.
//
// Both steps run in dot form.  An assignment is one dot per (series, center),
// err² = ‖s‖² − (s·r)²/(r·r), read against the window's memoised ‖s‖² and
// accepted only when no other center comes within a rounding band of the
// winner; a near-tie falls back to the exact projection error, so the choice
// is the one the exact route makes (see assign).  An update power-iterates on
// the members' Gram matrix, whose entries are memoised across iterations for
// pairs of series that stay co-members, and maps the eigenvector back through
// the member columns (see update).  Both give the bits of the textbook route:
// centers, assignments and projection errors are identical to forming each
// member matrix and computing its dominant singular vector.
//
// The cluster centers become the second column of pivot pair matrices
// O_p = [s_u, r_ω(v)] (Definition 2): because the projection error of s_v
// onto the 2-D hyperplane spanned by {s_u, r_ω(v)} can only be smaller than
// its projection error onto r_ω(v) alone, low projection error translates
// into a low LSFD between the pivot pair matrix and the sequence pair matrix,
// i.e. a high-quality affine relationship.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/timeseries"
)

// ErrBadConfig indicates an invalid clustering configuration.
var ErrBadConfig = errors.New("cluster: bad configuration")

// DefaultMaxIterations is the default γ_max used when Config.MaxIterations is
// zero; it matches the value used throughout the paper's experiments.
const DefaultMaxIterations = 10

// DefaultMinChanges is the default δ_min used when Config.MinChanges is zero;
// it matches the value used throughout the paper's experiments.
const DefaultMinChanges = 10

// Config holds the AFCLST parameters (Algorithm 1 inputs).
type Config struct {
	// K is the number of affine clusters.  The paper's experiments sweep
	// k ∈ {6, 10, 14, 18, 22} and find that k = 6 already gives high accuracy.
	K int
	// MaxIterations is γ_max, the maximum number of assign/update rounds.
	// Zero selects DefaultMaxIterations.
	MaxIterations int
	// MinChanges is δ_min: the algorithm stops as soon as an assignment round
	// changes at most this many memberships.  Zero selects DefaultMinChanges.
	MinChanges int
	// Seed controls the random initialization of cluster centers.  Two runs
	// with the same seed and input produce identical clusterings.
	Seed int64
	// Parallelism is the number of goroutines used for the assignment phase
	// (sharded by series block) and the update phase (one cluster's Gram
	// power iteration per item).  Zero or one runs sequentially; the
	// clustering is identical at any level — per-series assignments and
	// per-cluster centers are independent computations merged in index order.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = DefaultMaxIterations
	}
	if c.MinChanges == 0 {
		c.MinChanges = DefaultMinChanges
	}
	return c
}

func (c Config) validate(n int) error {
	if c.K <= 0 {
		return fmt.Errorf("%w: k must be positive, got %d", ErrBadConfig, c.K)
	}
	if c.K > n {
		return fmt.Errorf("%w: k=%d exceeds number of series n=%d", ErrBadConfig, c.K, n)
	}
	if c.MaxIterations < 0 || c.MinChanges < 0 {
		return fmt.Errorf("%w: negative iteration parameters", ErrBadConfig)
	}
	return nil
}

// Result is the output of AFCLST: the cluster centers r_1 ... r_k and the
// cluster assignment function ω(v).  A result is frozen once Run returns (or
// once a hand-built one is first used), and what is a function of its centers
// alone — their self-moments, their L-measures — is memoised on it, so it is
// reduced once per clustering however many epochs, indexes and shards share
// the object.  A Result is held by pointer, never copied.
type Result struct {
	// Centers holds k unit-length cluster centers of length m.
	Centers [][]float64
	// Assignment maps each series identifier v to its cluster index ω(v)
	// in [0, k).
	Assignment []int
	// ProjectionErrors holds, for every series, the Euclidean distance
	// between the series and its orthogonal projection onto the center it
	// was assigned to in the final assignment round.
	ProjectionErrors []float64
	// Iterations is the number of assign/update rounds executed.
	Iterations int
	// Converged reports whether the δ_min stopping rule fired before γ_max.
	Converged bool
	// GuardFallbacks counts the assignments, over all rounds, that the dot
	// form's near-tie guard handed to the exact projection-error route.
	GuardFallbacks int

	momentsOnce sync.Once
	moments     *timeseries.Moments
	locMu       sync.Mutex
	locations   map[measure.Measure][]float64
}

// CenterMoments returns the self-moments of the centers, indexed by cluster.
// The result must not be modified.
func (r *Result) CenterMoments() *timeseries.Moments {
	r.momentsOnce.Do(func() { r.moments = timeseries.NewMoments(r.Centers) })
	return r.moments
}

// CenterLocations returns L-measure m of every center, indexed by cluster.
// The result must not be modified.
func (r *Result) CenterLocations(m measure.Measure) ([]float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Location() {
		return nil, fmt.Errorf("%w: %v is not an L-measure", measure.ErrUnknownMeasure, m)
	}
	r.locMu.Lock()
	defer r.locMu.Unlock()
	if locs, ok := r.locations[m]; ok {
		return locs, nil
	}
	locs := make([]float64, len(r.Centers))
	for l, center := range r.Centers {
		v, err := sp.EvalLocation(center)
		if err != nil {
			return nil, err
		}
		locs[l] = v
	}
	if r.locations == nil {
		r.locations = make(map[measure.Measure][]float64)
	}
	r.locations[m] = locs
	return locs, nil
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centers) }

// Omega returns ω(v), the cluster index of series v.
func (r *Result) Omega(v timeseries.SeriesID) (int, error) {
	if int(v) < 0 || int(v) >= len(r.Assignment) {
		return 0, fmt.Errorf("%w: series %d out of range", timeseries.ErrInvalidSeries, v)
	}
	return r.Assignment[v], nil
}

// Sizes returns the number of members per cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, len(r.Centers))
	for _, c := range r.Assignment {
		sizes[c]++
	}
	return sizes
}

// TotalProjectionError returns the sum of squared projection errors, the
// objective AFCLST drives down.
func (r *Result) TotalProjectionError() float64 {
	var sum float64
	for _, e := range r.ProjectionErrors {
		sum += e * e
	}
	return sum
}

// Run executes the AFCLST algorithm on the data matrix.
func Run(d *timeseries.DataMatrix, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumSeries()
	cfg = cfg.withDefaults()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialization phase: centers are distinct random columns of S,
	// normalized to unit length (Algorithm 1, lines 1-3).
	centers := make([][]float64, cfg.K)
	perm := rng.Perm(n)
	nextCol := 0
	for l := 0; l < cfg.K; l++ {
		centers[l] = pickInitialCenter(d, perm, &nextCol, rng)
	}

	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	result := &Result{Centers: centers, Assignment: assignment, ProjectionErrors: make([]float64, n)}
	w := newWorkspace(d, cfg)

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		result.Iterations = iter + 1

		// Assignment phase (Algorithm 1, lines 7-15).
		changes, fallbacks := w.assign(centers, assignment)
		result.GuardFallbacks += fallbacks

		// Convergence check (Algorithm 1, lines 16-17).  The projection
		// errors are reported against the centers this last assignment read,
		// so they are reduced here, before the final update replaces them.
		converged := changes <= cfg.MinChanges
		if converged || iter == cfg.MaxIterations-1 {
			w.projectionErrors(centers, assignment, result.ProjectionErrors)
		}
		if converged {
			result.Converged = true
			break
		}

		// Update phase: each center becomes the dominant left singular vector
		// of the matrix of its members (Algorithm 1, lines 18-23).  An empty
		// cluster is re-seeded from a random series so that exactly k centers
		// survive; the re-seeds run first, sequentially and in cluster order,
		// so the RNG consumption is identical at any parallelism, and the
		// (RNG-free) per-cluster power iterations then fan out one per
		// cluster.
		w.group(assignment)
		nonEmpty := w.nonEmpty[:0]
		for l := 0; l < cfg.K; l++ {
			if w.start[l] == w.start[l+1] {
				centers[l] = randomUnitColumn(d, rng)
			} else {
				nonEmpty = append(nonEmpty, l)
			}
		}
		w.nonEmpty = nonEmpty
		_ = par.Do(len(nonEmpty), cfg.Parallelism, func(i int) error {
			l := nonEmpty[i]
			w.update(l, centers[l])
			return nil
		})
	}
	return result, nil
}

// workspace is what one Run reuses from round to round: the window's columns
// and memoised squared norms, per-block assignment scratch, the membership
// grouping and one Gram memo per cluster.  Nothing in it is allocated per
// (series, center) or per round once the buffers have grown to size.
type workspace struct {
	cols   [][]float64 // the window's series, by id
	sqNorm []float64   // ‖s‖² of every series: the window's memo
	m      int
	par    int

	blocks  []par.Block
	changes []int       // per block
	falls   []int       // per block
	scratch [][]float64 // per block: one q per center
	rr      []float64   // r·r per center, once per round

	// members lists the series grouped by cluster, ascending within a
	// cluster: cluster l's are members[start[l]:start[l+1]].
	members  []int32
	start    []int
	cursor   []int // scratch for group
	nonEmpty []int

	// owner[v] is the cluster whose Gram memo holds series v at row pos[v],
	// or -1.  After an update every series is owned by the cluster it was
	// updated in (or by none, as a singleton), so a cluster reading owner for
	// its own members reads only what it wrote itself one round earlier.
	owner []int32
	pos   []int32
	memo  []gramMemo
}

func newWorkspace(d *timeseries.DataMatrix, cfg Config) *workspace {
	n, k := d.NumSeries(), cfg.K
	w := &workspace{
		cols:    make([][]float64, n),
		sqNorm:  d.Moments().SqNorm,
		m:       d.NumSamples(),
		par:     cfg.Parallelism,
		blocks:  par.Blocks(n, cfg.Parallelism),
		rr:      make([]float64, k),
		members: make([]int32, n),
		start:   make([]int, k+1),
		owner:   make([]int32, n),
		pos:     make([]int32, n),
		memo:    make([]gramMemo, k),
	}
	for v := range w.cols {
		w.cols[v], _ = d.Series(timeseries.SeriesID(v))
		w.owner[v] = -1
	}
	nb := len(w.blocks)
	w.changes, w.falls = make([]int, nb), make([]int, nb)
	w.scratch = make([][]float64, nb)
	slab := make([]float64, nb*k)
	for b := range w.scratch {
		w.scratch[b] = slab[b*k : (b+1)*k : (b+1)*k]
	}
	return w
}

// guardBand is c in the acceptance band c·m·ε·‖s‖² of the dot-form
// assignment.  Write S = ‖s‖², u = ε/2 and γ = m·u, and let E_l be the exact
// squared projection error of s onto center l.  To first order in u:
//
//   - the dot form's q_l = fl(‖s‖² − fl(fl(d·d)/rr)) has |p_l − P_l| ≤
//     (3m + 2)·u·S for its projection term (one γ from the dot d, one from
//     rr, one from squaring, one rounding each for the product and the
//     quotient), and ‖s‖² is the same value in every q_l, so its own error
//     cancels from a difference: |(q_l − q_j) − (E_l − E_j)| ≤ (6m + 6)·u·S;
//   - the exact route's e_l (residual vector, then the scaled norm) has a
//     residual within (2m + 3)·u·‖s‖ of the true one, and the scaled norm
//     adds at most (2.5m + 2)·u relative (up to five roundings on the
//     accumulator per sample when every sample rescales), so
//     |e_l² − E_l| ≤ (9m + 10)·u·S and a difference is off by at most
//     (18m + 20)·u·S.
//
// A computed gap q_l − q_best above (24m + 26)·u·S = (12m + 13)·ε·S therefore
// means e_l² > e_best² for the floats the exact route produces, so it picks
// the same center under its strict-< scan.  That needs c ≥ 12 + 13/m — 25 at
// m = 1, 18.5 at m = 2, 12 in the limit — and c = 32 leaves the slack for
// second-order terms, for ‖s‖² ≥ S·(1 − γ) and for gradual underflow: the
// guard demands a normal ‖s‖², above which a rounding that underflows costs
// at most 2⁻¹⁰⁷⁵, under 1/64 of the band, and a gap holds a handful of them.
const guardBand = 32

// assign is one assignment round: every series goes to the center with the
// smallest orthogonal projection error, with ties to the lowest index.  It
// returns how many memberships changed and how many series the guard sent
// to the exact route.  Series are independent, so the round shards by series
// block; each block counts its own changes and fallbacks.
func (w *workspace) assign(centers [][]float64, assignment []int) (changes, fallbacks int) {
	for l, r := range centers {
		w.rr[l] = dot(r, r)
	}
	band := guardBand * float64(w.m) * epsilon
	_ = par.Do(len(w.blocks), w.par, func(b int) error {
		q := w.scratch[b]
		w.changes[b], w.falls[b] = 0, 0
		for v := w.blocks[b].Lo; v < w.blocks[b].Hi; v++ {
			s := w.cols[v]
			best, ok := pickByDots(s, w.sqNorm[v], centers, w.rr, band, q)
			if !ok {
				best = pickExact(s, centers)
				w.falls[b]++
			}
			if assignment[v] != best {
				w.changes[b]++
				assignment[v] = best
			}
		}
		return nil
	})
	for b := range w.blocks {
		changes += w.changes[b]
		fallbacks += w.falls[b]
	}
	return changes, fallbacks
}

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52

// pickByDots chooses s's center from err²_l = ‖s‖² − (s·r_l)²/(r_l·r_l),
// writing the k values into q.  It reports false — decide exactly — unless
// ‖s‖² (sq) is a finite normal float and every other center's err² exceeds
// the smallest by more than band·‖s‖² (see guardBand).  A NaN anywhere fails
// the comparison and so falls back too.
func pickByDots(s []float64, sq float64, centers [][]float64, rr []float64, band float64, q []float64) (int, bool) {
	if !(sq >= 0x1p-1022 && sq <= math.MaxFloat64) {
		return 0, false
	}
	dots(s, centers, q)
	best := 0
	for l, d := range q {
		q[l] = sq - d*d/rr[l]
		if q[l] < q[best] {
			best = l
		}
	}
	lo := q[best]
	if !(lo >= -math.MaxFloat64) {
		return 0, false
	}
	band *= sq
	for l, e := range q {
		if l != best && !(e-lo > band) {
			return 0, false
		}
	}
	return best, true
}

// pickExact is the exact route: the scaled-norm projection error onto every
// center, lowest strictly smaller error winning.
func pickExact(s []float64, centers [][]float64) int {
	best, bestErr := 0, projectionError(s, centers[0])
	for l := 1; l < len(centers); l++ {
		if e := projectionError(s, centers[l]); e < bestErr {
			best, bestErr = l, e
		}
	}
	return best
}

// projectionErrors writes every series' exact projection error onto its
// assigned center.
func (w *workspace) projectionErrors(centers [][]float64, assignment []int, dst []float64) {
	_ = par.Do(len(w.blocks), w.par, func(b int) error {
		for v := w.blocks[b].Lo; v < w.blocks[b].Hi; v++ {
			dst[v] = projectionError(w.cols[v], centers[assignment[v]])
		}
		return nil
	})
}

// group lists every cluster's members, ascending by series id (a counting
// sort of the assignment).
func (w *workspace) group(assignment []int) {
	for l := range w.start {
		w.start[l] = 0
	}
	for _, l := range assignment {
		w.start[l+1]++
	}
	for l := 1; l < len(w.start); l++ {
		w.start[l] += w.start[l-1]
	}
	next := append(w.cursor[:0], w.start[:len(w.start)-1]...)
	for v, l := range assignment {
		w.members[next[l]] = int32(v)
		next[l]++
	}
	w.cursor = next
}

// gramMemo is one cluster's member Gram matrix as of its last update, and the
// buffers its power iteration reuses.
type gramMemo struct {
	size  int       // members the Gram was reduced over
	shift int       // the entries are Σ (2^shift·a)(2^shift·b)
	gram  []float64 // size×size, row-major, symmetric
	spare []float64 // the next update's Gram

	prev      []int32     // each member's row in gram, or -1
	fresh     []int       // scratch: the columns of one row not in the memo
	freshCols [][]float64 // ... and their samples
	vals      []float64   // ... and their dots
	src       []float64   // prescaled member columns when shift ≠ 0
	cols      [][]float64 // the member columns the update reads
	v, nxt    []float64   // power-iteration vectors
}

// update replaces cluster l's center, in place in dst, by the dominant left
// singular vector of its member matrix M (Algorithm 1, lines 18-23): power
// iteration on the Gram MᵀM — cold start v_i ∝ 1/√(c+i), at most 500 steps,
// stopping when no component's magnitude moves by 1e-13 — then u = M·v/‖M·v‖.
//
// Gram entry (i, j) is one accumulator over the samples in order, the bits of
// the strided reduction of a row-major member matrix; it is taken from the
// previous round's Gram when both series were members of this cluster then.
// M·v is an axpy over the members in order, the bits of a row-major
// matrix-vector product.  A single member is normalized directly, and a Gram
// or M·v that is zero yields e₀.
//
// The members are prescaled by an exact power of two when their largest
// ‖s‖² leaves [2⁻⁵¹², 2⁵¹²], so that the Gram neither overflows nor flushes
// to zero.  Inside that range no scaling is applied, and outside it the
// scaling changes no bits unless the unscaled route would under- or
// overflow: Gram entries scale by 4^shift exactly, which the normalizations
// of power iteration and map-back cancel.  Memoised entries from a round with
// another shift are rescaled by the same exact power of two.
func (w *workspace) update(l int, dst []float64) {
	g := &w.memo[l]
	members := w.members[w.start[l]:w.start[l+1]]
	c := len(members)
	if c == 1 {
		normalizeInto(dst, w.cols[members[0]])
		w.owner[members[0]] = -1
		g.size = 0
		return
	}

	shift := w.prescale(members)
	g.cols = grow(g.cols, c)
	if shift == 0 {
		for i, v := range members {
			g.cols[i] = w.cols[v]
		}
	} else {
		g.src = grow(g.src, c*w.m)
		sc := math.Ldexp(1, shift)
		for i, v := range members {
			col := g.src[i*w.m : (i+1)*w.m : (i+1)*w.m]
			for r, x := range w.cols[v] {
				col[r] = x * sc
			}
			g.cols[i] = col
		}
	}

	// Each member's row in the previous Gram, then the new ownership.
	g.prev = grow(g.prev, c)
	for i, v := range members {
		g.prev[i] = -1
		if w.owner[v] == int32(l) {
			g.prev[i] = w.pos[v]
		}
		w.owner[v], w.pos[v] = int32(l), int32(i)
	}

	gram := grow(g.spare, c*c)
	g.vals = grow(g.vals, c)
	rescale := 2 * (shift - g.shift)
	for i := 0; i < c; i++ {
		fresh, freshCols := g.fresh[:0], g.freshCols[:0]
		pi := g.prev[i]
		for j := i; j < c; j++ {
			if pj := g.prev[j]; pi >= 0 && pj >= 0 {
				e := g.gram[int(pi)*g.size+int(pj)]
				if rescale != 0 {
					e = math.Ldexp(e, rescale)
				}
				gram[i*c+j], gram[j*c+i] = e, e
			} else {
				fresh, freshCols = append(fresh, j), append(freshCols, g.cols[j])
			}
		}
		dots(g.cols[i], freshCols, g.vals)
		for f, j := range fresh {
			gram[i*c+j], gram[j*c+i] = g.vals[f], g.vals[f]
		}
		g.fresh, g.freshCols = fresh, freshCols
	}
	g.spare, g.gram = g.gram, gram
	g.size, g.shift = c, shift
	g.dominant(dst)
}

// prescale returns the exponent the members are scaled by before their Gram
// is reduced: 0 while their largest ‖s‖² lies in [2⁻⁵¹², 2⁵¹²], otherwise the
// one that brings their largest |x| into [½, 1).
func (w *workspace) prescale(members []int32) int {
	var top float64
	for _, v := range members {
		if sq := w.sqNorm[v]; !(sq <= top) {
			top = sq
		}
	}
	if top >= 0x1p-512 && top <= 0x1p512 {
		return 0
	}
	var mx float64
	for _, v := range members {
		for _, x := range w.cols[v] {
			mx = math.Max(mx, math.Abs(x))
		}
	}
	if mx == 0 {
		return 0
	}
	_, e := math.Frexp(mx)
	return min(max(-e, -1022), 1023)
}

// dominant power-iterates on the Gram and writes the unit-length M·v into
// dst, M's columns being g.cols.
func (g *gramMemo) dominant(dst []float64) {
	const maxIter = 500
	const tol = 1e-13
	c, gram := g.size, g.gram
	g.v, g.nxt = grow(g.v, c), grow(g.nxt, c)
	v, next := g.v, g.nxt
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = 1 / math.Sqrt(float64(c)+float64(i))
	}
	normalizeInto(v, v)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			var sum float64
			for j, x := range gram[i*c : (i+1)*c] {
				sum += x * v[j]
			}
			next[i] = sum
		}
		nrm := norm(next)
		if nrm == 0 {
			// M is the zero matrix; any unit vector is a valid answer.
			unitInto(dst)
			return
		}
		// Convergence on direction (sign-insensitive).
		var diff float64
		for i := range next {
			next[i] /= nrm
			if d := math.Abs(math.Abs(next[i]) - math.Abs(v[i])); d > diff {
				diff = d
			}
		}
		v, next = next, v
		if diff < tol {
			break
		}
	}

	// Map back: u = M v / ‖M v‖.
	for r := range dst {
		dst[r] = 0
	}
	for j, col := range g.cols[:c] {
		vj := v[j]
		for r, x := range col {
			dst[r] += x * vj
		}
	}
	nrm := norm(dst)
	if nrm == 0 {
		unitInto(dst)
		return
	}
	for r := range dst {
		dst[r] /= nrm
	}
}

// grow returns buf resized to n, reallocating only when its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// unitInto writes e₀ into dst.
func unitInto(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	dst[0] = 1
}

// pickInitialCenter returns the normalized column at the next unused position
// of the permutation, skipping zero columns.  If every remaining column is
// zero it falls back to a random unit vector.
func pickInitialCenter(d *timeseries.DataMatrix, perm []int, next *int, rng *rand.Rand) []float64 {
	for *next < len(perm) {
		s, err := d.Series(timeseries.SeriesID(perm[*next]))
		*next++
		if err != nil {
			continue
		}
		if norm(s) > 0 {
			return normalize(s)
		}
	}
	return randomUnitColumn(d, rng)
}

// randomUnitColumn returns a normalized random column of S, or a random unit
// vector when the chosen column is zero.
func randomUnitColumn(d *timeseries.DataMatrix, rng *rand.Rand) []float64 {
	n := d.NumSeries()
	for attempt := 0; attempt < n; attempt++ {
		s, err := d.Series(timeseries.SeriesID(rng.Intn(n)))
		if err != nil {
			continue
		}
		if norm(s) > 0 {
			return normalize(s)
		}
	}
	out := make([]float64, d.NumSamples())
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return normalize(out)
}
