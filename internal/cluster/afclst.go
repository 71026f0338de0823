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
	"math/rand"
	"sync"

	"affinity/internal/mat"
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
	// (sharded by series) and the update phase (one member-matrix SVD per
	// cluster).  Zero or one runs sequentially; the clustering is identical
	// at any level — per-series assignments and per-cluster centers are
	// independent computations merged in index order.
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
	// between the series and its orthogonal projection onto its cluster
	// center after the final iteration.
	ProjectionErrors []float64
	// Iterations is the number of assign/update rounds executed.
	Iterations int
	// Converged reports whether the δ_min stopping rule fired before γ_max.
	Converged bool

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
		center := pickInitialCenter(d, perm, &nextCol, rng)
		centers[l] = center
	}

	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	projErrors := make([]float64, n)

	result := &Result{Centers: centers, Assignment: assignment, ProjectionErrors: projErrors}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		result.Iterations = iter + 1

		// Assignment phase: each series goes to the center with the smallest
		// orthogonal projection error (Algorithm 1, lines 7-15).  Series are
		// independent, so the phase shards by series block; each block counts
		// its own changes and the counts are summed afterwards.
		blocks := par.Blocks(n, cfg.Parallelism)
		blockChanges := make([]int, len(blocks))
		err := par.Do(len(blocks), cfg.Parallelism, func(b int) error {
			for v := blocks[b].Lo; v < blocks[b].Hi; v++ {
				s, err := d.Series(timeseries.SeriesID(v))
				if err != nil {
					return err
				}
				best, bestErr := 0, mat.ProjectionError(s, centers[0])
				for l := 1; l < cfg.K; l++ {
					if e := mat.ProjectionError(s, centers[l]); e < bestErr {
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
		})
		if err != nil {
			return nil, err
		}
		changes := 0
		for _, c := range blockChanges {
			changes += c
		}

		// Convergence check (Algorithm 1, lines 16-17).
		if changes <= cfg.MinChanges {
			result.Converged = true
			break
		}

		// Update phase: each center becomes the dominant left singular vector
		// of the matrix of its members (Algorithm 1, lines 18-23).  An empty
		// cluster is re-seeded from a random series so that exactly k centers
		// survive; the re-seeds run first, sequentially and in cluster order,
		// so the RNG consumption is identical at any parallelism, and the
		// (RNG-free) member-matrix SVDs then fan out one per cluster.
		members := make([][]timeseries.SeriesID, cfg.K)
		for v, c := range assignment {
			members[c] = append(members[c], timeseries.SeriesID(v))
		}
		var nonEmpty []int
		for l := 0; l < cfg.K; l++ {
			if len(members[l]) == 0 {
				centers[l] = randomUnitColumn(d, rng)
			} else {
				nonEmpty = append(nonEmpty, l)
			}
		}
		err = par.Do(len(nonEmpty), cfg.Parallelism, func(i int) error {
			l := nonEmpty[i]
			members := members[l]
			cols := make([][]float64, len(members))
			for i, v := range members {
				s, err := d.Series(v)
				if err != nil {
					return err
				}
				cols[i] = s
			}
			memberMatrix, err := mat.NewFromColumns(cols...)
			if err != nil {
				return err
			}
			center, err := mat.DominantLeftSingularVector(memberMatrix)
			if err != nil {
				return fmt.Errorf("cluster: updating center %d: %w", l, err)
			}
			centers[l] = center
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return result, nil
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
		if mat.Norm(s) > 0 {
			return mat.Normalize(s)
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
		if mat.Norm(s) > 0 {
			return mat.Normalize(s)
		}
	}
	out := make([]float64, d.NumSamples())
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return mat.Normalize(out)
}
