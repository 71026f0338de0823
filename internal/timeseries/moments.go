package timeseries

import "affinity/internal/measure"

// Moments holds the self-moments of a set of equally long columns — the series
// of a window, or the centers of a clustering — indexed by column.  Every
// field carries the bits of the scalar primitive named beside it, so a
// consumer that reads a moment gets what it would have reduced itself.
//
// This is the one place a column is reduced to them: a window's are memoised
// on the DataMatrix (Moments), a clustering's on the cluster.Result, and every
// layer above reads those.
type Moments struct {
	Sum      []float64 // Σx (measure.SumOf)
	Mean     []float64 // Σx/m (measure.MeanOf)
	Variance []float64 // Σ(x−mean)²/(m−1) (measure.VarianceOf)
	SqNorm   []float64 // ⟨x, x⟩ (measure.DotProductOf(x, x))
}

// NewMoments reduces every column in two passes: Σx and Σx² together, each on
// its own accumulator in sample order from zero, then the squared deviations
// from the mean — the operation order of the scalar primitives.
func NewMoments(cols [][]float64) *Moments {
	n := len(cols)
	slab := make([]float64, 4*n)
	mo := &Moments{
		Sum:      slab[0:n:n],
		Mean:     slab[n : 2*n : 2*n],
		Variance: slab[2*n : 3*n : 3*n],
		SqNorm:   slab[3*n:],
	}
	for v, x := range cols {
		var sum, sqNorm float64
		for _, s := range x {
			sum += s
			sqNorm += s * s
		}
		mean := sum / float64(len(x))
		var ss float64
		if len(x) > 1 { // VarianceOf of a single sample is zero
			for _, s := range x {
				d := s - mean
				ss += d * d
			}
			ss /= float64(len(x) - 1)
		}
		mo.Sum[v], mo.Mean[v], mo.Variance[v], mo.SqNorm[v] = sum, mean, ss, sqNorm
	}
	return mo
}

// Stat returns column id's statistics in measure.SeriesStat form —
// bit-identical to measure.NaiveSeriesStat on the same samples for every mask.
func (mo *Moments) Stat(id SeriesID) measure.SeriesStat {
	return measure.SeriesStat{Variance: mo.Variance[id], SqNorm: mo.SqNorm[id]}
}

// Moments returns the self-moments of the window's series, reduced on the
// first call and shared by every later one — every engine, index, kernel
// mirror and shard over this window reads the same object.  Append drops
// them; SlideCopy does not hand them on, because a slid sum is
// not the bits a fresh reduction yields.  Once memoised they are one atomic
// load away: readers take no lock.  The result must not be modified.
func (d *DataMatrix) Moments() *Moments {
	if mo := d.moments.Load(); mo != nil {
		return mo
	}
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	mo := d.moments.Load()
	if mo == nil {
		mo = NewMoments(d.series)
		d.moments.Store(mo)
	}
	return mo
}
