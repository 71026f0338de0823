// Package timeseries defines the data model of the Affinity framework: the
// data matrix S of n time series with m samples each, series identifiers,
// sequence pairs, and pair matrices.
//
// Terminology follows Section 2 of the paper:
//
//   - the data matrix S = [s1, s2, ..., sn] ∈ R^{m×n} column-wise concatenates
//     the n time series;
//   - the series identifier set I = {1, ..., n} identifies individual series;
//   - the sequence pair set P = {(u,v) | u < v} identifies unordered pairs;
//   - the sequence pair matrix S_e = [s_u, s_v] ∈ R^{m×2} concatenates the two
//     series of a pair e = (u, v).
//
// Series identifiers in this package are zero-based (0 ... n-1) rather than
// the paper's one-based convention; the conversion is purely notational.
package timeseries

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"affinity/internal/mat"
	"affinity/internal/measure"
)

// ErrInvalidSeries indicates an out-of-range or malformed series identifier.
var ErrInvalidSeries = errors.New("timeseries: invalid series identifier")

// ErrInvalidPair indicates a malformed sequence pair.
var ErrInvalidPair = errors.New("timeseries: invalid sequence pair")

// ErrShapeMismatch indicates series of inconsistent length.
var ErrShapeMismatch = errors.New("timeseries: inconsistent series lengths")

// SeriesID identifies a single time series inside a DataMatrix (zero-based).
type SeriesID int

// Pair is an unordered pair of series identifiers with U < V, the paper's
// "sequence pair" e = (u, v).
type Pair struct {
	U SeriesID
	V SeriesID
}

// NewPair returns the canonical (ordered) pair for two distinct identifiers.
func NewPair(a, b SeriesID) (Pair, error) {
	if a == b {
		return Pair{}, fmt.Errorf("%w: identical identifiers %d", ErrInvalidPair, a)
	}
	if a > b {
		a, b = b, a
	}
	return Pair{U: a, V: b}, nil
}

// ComparePairs is the canonical pair order — by U, then by V — in which
// AllPairs lists the pairs and PairRank counts them, and in which every sorted
// pair list of the engine is kept.
func ComparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// PairRank returns the position of canonical pair e among the n(n−1)/2 pairs
// of n series in canonical order: its index in AllPairs, the inverse of
// PairsAt.
func PairRank(n int, e Pair) int {
	u, v := int(e.U), int(e.V)
	return u*n - u*(u+1)/2 + v - u - 1
}

// String renders the pair as "(u,v)".
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.U, p.V) }

// Valid reports whether the pair is canonical (U < V) and non-negative.
func (p Pair) Valid() bool { return p.U >= 0 && p.U < p.V }

// Contains reports whether the pair contains the given series identifier.
func (p Pair) Contains(id SeriesID) bool { return p.U == id || p.V == id }

// Other returns the member of the pair that is not id.  It returns an error
// if id is not a member of the pair.
func (p Pair) Other(id SeriesID) (SeriesID, error) {
	switch id {
	case p.U:
		return p.V, nil
	case p.V:
		return p.U, nil
	default:
		return 0, fmt.Errorf("%w: series %d not in pair %v", ErrInvalidPair, id, p)
	}
}

// DataMatrix is the data matrix S: n time series with m samples each.
//
// Storage is column-major (one contiguous slice per series) because every
// Affinity algorithm accesses whole series at a time.
//
// A data matrix can act as a sliding window over an unbounded stream:
// SlideCopy returns the next window — a batch of new samples appended at the
// right edge of every series, as many of the oldest evicted from the left
// edge — and leaves the receiver's samples untouched, so a query holding the
// old window keeps reading it.  The start index records how many samples have
// been evicted over the stream's lifetime, so sample i of the current window
// is logical stream position start+i.
//
// Slid windows are views into one shared slab with headroom past every
// column (windowSlab): the newest view slides in place by writing only the
// new samples just past its columns, and every other slide compacts into a
// fresh slab.  No view ever sees a write — new samples land beyond every view
// of the slab, and a superseded slab is never written again — so the views
// need no pin and the GC frees a slab with its last view.
//
// A window also answers order statistics: EvalSorted evaluates a function
// over a series' samples in sorted order, built for the whole matrix on first
// use and from then on slid by SlideCopy in O(slide) insertions per series —
// the columns move forward to the next window instead of being copied or
// re-sorted, so a streaming engine asked for medians and modes at every epoch
// reads them off each window without a per-epoch sort, and one never asked
// for them never sorts at all.  Moments returns the series' self-moments
// (Σx, mean, variance, Σx²), reduced once per window for every consumer.
type DataMatrix struct {
	names  []string    // optional per-series names, len n (may be empty strings)
	series [][]float64 // n slices of length m
	m      int         // samples per series
	start  int         // logical stream index of the first retained sample

	// slab, when non-nil, backs every series: series[v] is the cap-limited
	// view slab.vals[v*stride+off : v*stride+off+m].  SlideCopy lays its
	// result out this way, so the kernel mirror can alias the window instead
	// of copying it and the next slide can write just past it; Append drops
	// it.
	slab *windowSlab
	off  int

	// sorted holds the n columns of the window in measure.SortSamples order,
	// column v at sorted[v*m:(v+1)*m]; nil until the first EvalSorted call,
	// and again once SlideCopy has moved them forward to the next window.
	// moments holds the series' self-moments; nil until the first Moments
	// call.  memoMu guards sorted and serialises the builds of both (queries
	// on one epoch may race to build them); readers of the sorted columns
	// share it, readers of memoised moments load the pointer without it.
	memoMu  sync.RWMutex
	sorted  []float64
	moments atomic.Pointer[Moments]

	// validated records that Validate succeeded on the current contents, so
	// the next Validate need not scan them again.  Several builders may
	// validate one shared matrix at once, hence the atomic.
	validated atomic.Bool
}

// windowSlab is the storage a chain of slid windows shares: n columns of
// stride = m + H samples, column v at vals[v*stride:(v+1)*stride], each
// window a view at some offset into every column.  tip is the offset of the
// one view that may still slide in place — the newest; a slide claims it with
// CompareAndSwap, so of two slides from one view at most one writes.
type windowSlab struct {
	vals   []float64
	stride int
	tip    atomic.Int64
}

// headroom returns H, the samples a fresh slab leaves past the window's m in
// every column: a quarter of the window, or one slide where that is longer, so
// ⌊H/slide⌋ slides of one length run in place between two compactions.  A
// slide of a whole window never runs in place and does not size the room.
func headroom(m, slide int) int {
	if slide >= m {
		slide = 0
	}
	return max(m/4, slide)
}

// NewDataMatrix builds a data matrix from n series of equal length.  The
// series slices are copied.
func NewDataMatrix(series [][]float64) (*DataMatrix, error) {
	d := &DataMatrix{}
	for i, s := range series {
		if err := d.Append(fmt.Sprintf("series-%d", i), s); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// NewNamedDataMatrix builds a data matrix from named series of equal length.
func NewNamedDataMatrix(names []string, series [][]float64) (*DataMatrix, error) {
	if len(names) != len(series) {
		return nil, fmt.Errorf("%w: %d names for %d series", ErrShapeMismatch, len(names), len(series))
	}
	d := &DataMatrix{}
	for i, s := range series {
		if err := d.Append(names[i], s); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Append adds one more series to the data matrix.  All series must have the
// same number of samples; the first appended series fixes m.
func (d *DataMatrix) Append(name string, values []float64) error {
	if len(d.series) == 0 {
		if len(values) == 0 {
			return fmt.Errorf("%w: empty series", ErrShapeMismatch)
		}
		d.m = len(values)
	} else if len(values) != d.m {
		return fmt.Errorf("%w: series %q has %d samples, want %d",
			ErrShapeMismatch, name, len(values), d.m)
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	d.series = append(d.series, cp)
	d.names = append(d.names, name)
	// Drop the state derived from the previous layout and contents.
	d.validated.Store(false)
	d.slab, d.off = nil, 0
	d.memoMu.Lock()
	d.sorted = nil
	d.moments.Store(nil)
	d.memoMu.Unlock()
	return nil
}

// NumSeries returns n, the number of time series.
func (d *DataMatrix) NumSeries() int { return len(d.series) }

// NumSamples returns m, the number of samples per series.
func (d *DataMatrix) NumSamples() int { return d.m }

// StartIndex returns the logical stream position of the first retained
// sample: the total number of samples SlideCopy evicted on the way from the
// first window to this one.  A window that never slid has start index 0.
func (d *DataMatrix) StartIndex() int { return d.start }

// SlideCopy returns a new data matrix whose window holds the most recent
// NumSamples() samples of every series after appending the batch: the window
// length stays fixed, the oldest len(batch[v]) samples are evicted, and the
// start index advances accordingly.  The receiver's samples are not modified,
// so query paths holding a reference to it keep observing the old window —
// this is the copy-on-write primitive behind the engine's epoch swap.
//
// The result shares the receiver's slab when the receiver is the slab's
// newest view and the headroom has room for the batch: then only the batch is
// written, just past the receiver's columns, and the result is the receiver's
// view shifted by the slide.  Every other slide — a second one from the same
// receiver, one whose earlier result was discarded, a slide of a whole window,
// a matrix with no slab — compacts the window into a fresh slab.  The
// receiver's sorted columns, when it has them, move to the result slid, and
// the receiver sorts afresh if asked again.
//
// A batch longer than the window replaces the window entirely (only its most
// recent NumSamples() entries are retained).
func (d *DataMatrix) SlideCopy(batch [][]float64) (*DataMatrix, error) {
	if len(batch) != len(d.series) {
		return nil, fmt.Errorf("%w: batch for %d series, matrix has %d",
			ErrShapeMismatch, len(batch), len(d.series))
	}
	if len(d.series) == 0 {
		return nil, fmt.Errorf("%w: cannot slide an empty matrix", ErrShapeMismatch)
	}
	slide := len(batch[0])
	for v, b := range batch {
		if len(b) != slide {
			return nil, fmt.Errorf("%w: batch for series %d has %d samples, want %d",
				ErrShapeMismatch, v, len(b), slide)
		}
		if mat.HasNaN(b) {
			return nil, fmt.Errorf("timeseries: batch for series %d contains NaN or Inf", v)
		}
	}
	n, m := len(d.series), d.m
	out := &DataMatrix{
		names:  d.names[:n:n],
		series: make([][]float64, n),
		m:      m,
		start:  d.start + slide,
	}
	if !d.slideInPlace(out, batch, slide) {
		d.compactInto(out, batch, slide)
	}

	// The batch was just checked sample by sample, so a validated window
	// slides into a validated window.
	out.validated.Store(d.validated.Load())

	// A window that has its sorted columns hands them on, slid: whoever
	// shares the result (every shard behind a coordinator) shares them too.
	d.memoMu.Lock()
	sorted := d.sorted
	d.sorted = nil
	d.memoMu.Unlock()
	if sorted != nil {
		for v, s := range d.series {
			w := sorted[v*m : (v+1)*m]
			if slide >= m {
				copy(w, out.series[v])
				measure.SortSamples(w)
				continue
			}
			for i, in := range batch[v] {
				replaceSorted(w, s[i], in)
			}
		}
		out.sorted = sorted
	}
	return out, nil
}

// slideInPlace lays out's window into d's slab, shifted by the slide, when d
// is the slab's newest view and its headroom holds the batch: it claims the
// tip and writes the batch just past d's columns, where no view of the slab
// reads.  It reports whether it did.
func (d *DataMatrix) slideInPlace(out *DataMatrix, batch [][]float64, slide int) bool {
	b, m := d.slab, d.m
	if b == nil || slide >= m || d.off+m+slide > b.stride ||
		!b.tip.CompareAndSwap(int64(d.off), int64(d.off+slide)) {
		return false
	}
	lo := d.off + slide
	for v := range batch {
		col := b.vals[v*b.stride : (v+1)*b.stride]
		copy(col[d.off+m:], batch[v])
		out.series[v] = col[lo : lo+m : lo+m]
	}
	out.slab, out.off = b, lo
	return true
}

// compactInto lays out's window at the start of a fresh slab: the receiver's
// surviving samples, then the batch.
func (d *DataMatrix) compactInto(out *DataMatrix, batch [][]float64, slide int) {
	m := d.m
	b := &windowSlab{stride: m + headroom(m, slide)}
	b.vals = make([]float64, len(d.series)*b.stride)
	for v, s := range d.series {
		w := b.vals[v*b.stride : v*b.stride+m : v*b.stride+m]
		if slide >= m {
			copy(w, batch[v][slide-m:])
		} else {
			copy(w, s[slide:])
			copy(w[m-slide:], batch[v])
		}
		out.series[v] = w
	}
	out.slab, out.off = b, 0
}

// replaceSorted swaps one occurrence of out for in inside w, which is and
// stays in measure.SortSamples order: one binary search each for the sample
// leaving and the slot of the one arriving (after any equal samples), then a
// memmove of the stretch between them.  out must be present in w.
func replaceSorted(w []float64, out, in float64) {
	p := sortedRank(w, out, false) // an occurrence of out
	q := sortedRank(w, in, true)
	if q > p {
		copy(w[p:], w[p+1:q])
		w[q-1] = in
	} else {
		copy(w[q+1:p+1], w[q:p])
		w[q] = in
	}
}

// sortedRank returns how many samples of the sorted w are ordered before x —
// or, with equal set, before or equal to it.
func sortedRank(w []float64, x float64, equal bool) int {
	lo, hi := 0, len(w)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if measure.SampleLess(w[mid], x) || (equal && !measure.SampleLess(x, w[mid])) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EvalSorted returns f evaluated over the samples of series id in
// measure.SortSamples order (by value, −0 before +0).  The first call sorts
// every column of the matrix once; a matrix produced from it by SlideCopy
// inherits the columns slid.  f runs under the memo's read lock, because the
// next SlideCopy moves the columns on: it must not keep or modify the slice,
// nor call back into d.
func (d *DataMatrix) EvalSorted(id SeriesID, f func(sorted []float64) (float64, error)) (float64, error) {
	if err := d.checkID(id); err != nil {
		return 0, err
	}
	var v float64
	err := d.withSorted(func(sorted []float64) (err error) {
		v, err = f(d.sortedColumn(sorted, id))
		return err
	})
	return v, err
}

// withSorted runs f over the window's sorted columns, sorting them first when
// the window has none, under one hold of the memo's lock: its read lock once
// they exist.
func (d *DataMatrix) withSorted(f func(sorted []float64) error) error {
	d.memoMu.RLock()
	if d.sorted != nil {
		defer d.memoMu.RUnlock()
		return f(d.sorted)
	}
	d.memoMu.RUnlock()
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	if d.sorted == nil {
		d.sorted = make([]float64, len(d.series)*d.m)
		for v, s := range d.series {
			w := d.sorted[v*d.m : (v+1)*d.m]
			copy(w, s)
			measure.SortSamples(w)
		}
	}
	return f(d.sorted)
}

// sortedColumn is series id's column of the sorted columns.
func (d *DataMatrix) sortedColumn(sorted []float64, id SeriesID) []float64 {
	lo := int(id) * d.m
	return sorted[lo : lo+d.m : lo+d.m]
}

// SortedSeries returns a copy of the samples of series id in
// measure.SortSamples order, read off the matrix's sorted columns
// (EvalSorted).
func (d *DataMatrix) SortedSeries(id SeriesID) ([]float64, error) {
	var out []float64
	_, err := d.EvalSorted(id, func(sorted []float64) (float64, error) {
		out = append([]float64(nil), sorted...)
		return 0, nil
	})
	return out, err
}

// Location computes L-measure m of series id — the bits of the measure's
// EvalLocation over the raw series — from what the window memoises: order
// statistics (median, mode) are read off the sorted columns (EvalSorted),
// which a streaming window slides instead of re-sorting, and the mean off
// Moments.  Only an L-measure with neither reduces the raw series.  Every
// exact L-measure of a window series the engine answers comes from here or
// from Locations.
func (d *DataMatrix) Location(m measure.Measure, id SeriesID) (float64, error) {
	var out [1]float64
	err := d.Locations(m, []SeriesID{id}, out[:])
	return out[0], err
}

// Locations writes L-measure m of every series in ids into out, aligned with
// ids: the bits Location gives each.  An order statistic reads all of them off
// the sorted columns under one hold of the memo's read lock.
func (d *DataMatrix) Locations(m measure.Measure, ids []SeriesID, out []float64) error {
	sp, ok := measure.Find(m)
	if !ok || !sp.Location() {
		return fmt.Errorf("%w: %v is not an L-measure", measure.ErrUnknownMeasure, m)
	}
	for _, id := range ids {
		if err := d.checkID(id); err != nil {
			return err
		}
	}
	if sp.EvalSorted != nil {
		return d.withSorted(func(sorted []float64) error {
			for i, id := range ids {
				v, err := sp.EvalSorted(d.sortedColumn(sorted, id))
				if err != nil {
					return err
				}
				out[i] = v
			}
			return nil
		})
	}
	if m == measure.Mean {
		mean := d.Moments().Mean
		for i, id := range ids {
			out[i] = mean[id]
		}
		return nil
	}
	for i, id := range ids {
		v, err := sp.EvalLocation(d.series[id])
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// Slab returns the storage behind the window when it is one slab (a
// SlideCopy result not mutated since): column v is
// vals[v*stride+off : v*stride+off+m].  vals is nil otherwise.  The slab is
// internal storage and must not be modified; past the window's columns it
// holds samples of other windows, including ones written after this call.
func (d *DataMatrix) Slab() (vals []float64, stride, off int) {
	if d.slab == nil {
		return nil, 0, 0
	}
	return d.slab.vals, d.slab.stride, d.off
}

// Name returns the name of series id (empty when unnamed).
func (d *DataMatrix) Name(id SeriesID) string {
	if err := d.checkID(id); err != nil {
		return ""
	}
	return d.names[id]
}

// Series returns the samples of series id.  The returned slice is the
// internal storage and must not be modified by callers; use SeriesCopy for a
// mutable copy.
func (d *DataMatrix) Series(id SeriesID) ([]float64, error) {
	if err := d.checkID(id); err != nil {
		return nil, err
	}
	return d.series[id], nil
}

// SeriesCopy returns a copy of the samples of series id.
func (d *DataMatrix) SeriesCopy(id SeriesID) ([]float64, error) {
	s, err := d.Series(id)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(s))
	copy(out, s)
	return out, nil
}

func (d *DataMatrix) checkID(id SeriesID) error {
	if id < 0 || int(id) >= len(d.series) {
		return fmt.Errorf("%w: %d (n=%d)", ErrInvalidSeries, id, len(d.series))
	}
	return nil
}

// IDs returns the full series identifier set I = {0, ..., n-1}.
func (d *DataMatrix) IDs() []SeriesID {
	ids := make([]SeriesID, d.NumSeries())
	for i := range ids {
		ids[i] = SeriesID(i)
	}
	return ids
}

// AllPairs returns the sequence pair set P = {(u,v) | u < v} in lexicographic
// order.  The number of pairs is n(n-1)/2.
func (d *DataMatrix) AllPairs() []Pair {
	n := d.NumSeries()
	pairs := make([]Pair, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, Pair{U: SeriesID(u), V: SeriesID(v)})
		}
	}
	return pairs
}

// PairsAt fills dst with the len(dst) pairs that follow position rank in the
// AllPairs order and returns it, so a scan can walk the pair set a chunk at a
// time through one scratch buffer instead of materializing all n(n-1)/2
// pairs.  rank+len(dst) must not exceed NumPairs().
func (d *DataMatrix) PairsAt(rank int, dst []Pair) []Pair {
	if len(dst) == 0 {
		return dst
	}
	n := d.NumSeries()
	// Row u of the order starts at u·n − u·(u+1)/2 and holds n−1−u pairs.
	// Unrank with the closed form, then correct the float estimate by walking.
	rowStart := func(u int) int { return u*n - u*(u+1)/2 }
	b := float64(2*n - 1)
	u := int((b - math.Sqrt(b*b-8*float64(rank))) / 2)
	u = max(0, min(u, n-2))
	for rowStart(u) > rank {
		u--
	}
	for rowStart(u+1) <= rank {
		u++
	}
	v := u + 1 + rank - rowStart(u)
	for i := range dst {
		dst[i] = Pair{U: SeriesID(u), V: SeriesID(v)}
		if v++; v == n {
			u++
			v = u + 1
		}
	}
	return dst
}

// NumPairs returns |P| = n(n-1)/2.
func (d *DataMatrix) NumPairs() int {
	n := d.NumSeries()
	return n * (n - 1) / 2
}

// PairMatrix returns the sequence pair matrix S_e = [s_u, s_v] ∈ R^{m×2}.
func (d *DataMatrix) PairMatrix(e Pair) (*mat.Matrix, error) {
	if !e.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrInvalidPair, e)
	}
	su, err := d.Series(e.U)
	if err != nil {
		return nil, err
	}
	sv, err := d.Series(e.V)
	if err != nil {
		return nil, err
	}
	return mat.NewFromColumns(su, sv)
}

// ColumnsMatrix returns the m-by-2 matrix [a, b] where a and b are two
// arbitrary columns, one of which may be an external vector such as a cluster
// center (the pivot pair matrix O_p = [s_u, r_ω(v)]).
func (d *DataMatrix) ColumnsMatrix(u SeriesID, other []float64) (*mat.Matrix, error) {
	su, err := d.Series(u)
	if err != nil {
		return nil, err
	}
	if len(other) != d.m {
		return nil, fmt.Errorf("%w: external column has %d samples, want %d",
			ErrShapeMismatch, len(other), d.m)
	}
	return mat.NewFromColumns(su, other)
}

// SubMatrix returns the data matrix restricted to the requested identifiers,
// in the order given.  Names are preserved.
func (d *DataMatrix) SubMatrix(ids []SeriesID) (*DataMatrix, error) {
	out := &DataMatrix{}
	for _, id := range ids {
		s, err := d.SeriesCopy(id)
		if err != nil {
			return nil, err
		}
		if err := out.Append(d.Name(id), s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Window returns a new data matrix containing only samples [start, end) of
// every series, used for windowed statistical queries.
func (d *DataMatrix) Window(start, end int) (*DataMatrix, error) {
	if start < 0 || end > d.m || start >= end {
		return nil, fmt.Errorf("%w: window [%d,%d) of %d samples", ErrShapeMismatch, start, end, d.m)
	}
	out := &DataMatrix{}
	for i, s := range d.series {
		if err := out.Append(d.names[i], s[start:end]); err != nil {
			return nil, err
		}
	}
	out.start = d.start + start
	return out, nil
}

// Matrix returns the full m-by-n data matrix S as a dense matrix.  This is
// primarily used by naive baselines and tests; the Affinity algorithms work
// on individual series to avoid materializing S.
func (d *DataMatrix) Matrix() (*mat.Matrix, error) {
	if len(d.series) == 0 {
		return mat.New(0, 0), nil
	}
	return mat.NewFromColumns(d.series...)
}

// Clone returns a deep copy of the data matrix.
func (d *DataMatrix) Clone() *DataMatrix {
	out := &DataMatrix{m: d.m, start: d.start}
	out.names = append([]string(nil), d.names...)
	out.series = make([][]float64, len(d.series))
	for i, s := range d.series {
		cp := make([]float64, len(s))
		copy(cp, s)
		out.series[i] = cp
	}
	return out
}

// Validate checks structural invariants: a matrix at all, at least one
// series, equal lengths, and no NaN/Inf samples.  It returns a descriptive error for the first
// violation found.  A matrix remembers that it passed: until Append adds a
// series, further calls return without scanning, and SlideCopy hands the mark on to the window it returns.
// Writing through a slice returned by Series — which callers must not do —
// goes unnoticed.
func (d *DataMatrix) Validate() error {
	if d == nil {
		return fmt.Errorf("%w: no data matrix", ErrShapeMismatch)
	}
	if d.validated.Load() {
		return nil
	}
	if len(d.series) == 0 {
		return fmt.Errorf("%w: data matrix has no series", ErrShapeMismatch)
	}
	for i, s := range d.series {
		if len(s) != d.m {
			return fmt.Errorf("%w: series %d has %d samples, want %d", ErrShapeMismatch, i, len(s), d.m)
		}
		if mat.HasNaN(s) {
			return fmt.Errorf("timeseries: series %d (%q) contains NaN or Inf", i, d.names[i])
		}
	}
	d.validated.Store(true)
	return nil
}
