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

// DeriveChunk is the most pairs Moments.Params takes at a time, and the
// chunk Moments.Derive hands the measure's block forms.
const DeriveChunk = 256

// DeriveScratch is the working memory of Moments.Params and Moments.Derive:
// one chunk's series statistics and separable parameters.
type DeriveScratch struct {
	su, sv [DeriveChunk]measure.SeriesStat
	u      [DeriveChunk]float64
}

// Params returns the separable parameters of sp for pairs — at most
// DeriveChunk of them — from the columns' statistics, in sc.  Only the
// statistics sp.ParamStats names are gathered.
func (mo *Moments) Params(sp *measure.Spec, pairs []Pair, sc *DeriveScratch) []float64 {
	su, sv, u := sc.su[:len(pairs)], sc.sv[:len(pairs)], sc.u[:len(pairs)]
	if sp.ParamStats&measure.NeedVariance != 0 {
		for i, p := range pairs {
			su[i].Variance, sv[i].Variance = mo.Variance[p.U], mo.Variance[p.V]
		}
	}
	if sp.ParamStats&measure.NeedSqNorm != 0 {
		for i, p := range pairs {
			su[i].SqNorm, sv[i].SqNorm = mo.SqNorm[p.U], mo.SqNorm[p.V]
		}
	}
	sp.ParamBlock(su, sv, u)
	return u
}

// Derive writes the values of sp for pairs with base values t into out,
// which may alias t: the spec's transform over the pairs' separable
// parameters under m samples, NaN where the measure is undefined, a chunk at
// a time through the block forms; t itself for a T-measure.
func (mo *Moments) Derive(sp *measure.Spec, pairs []Pair, t []float64, m int, out []float64, sc *DeriveScratch) error {
	if !sp.Derived() {
		copy(out, t)
		return nil
	}
	for lo := 0; lo < len(pairs); lo += DeriveChunk {
		hi := min(lo+DeriveChunk, len(pairs))
		if err := sp.ValueBlock(t[lo:hi], mo.Params(sp, pairs[lo:hi], sc), m, out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}
