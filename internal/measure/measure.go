// Package measure defines the declarative measure algebra at the heart of the
// Affinity framework: every statistical measure the engine serves is described
// by a Spec — its class, base T-measure, separable normalizer parameter,
// monotone value transform and capability flags — registered in a process-wide
// registry.  Every other layer (naive evaluation here and in
// internal/timeseries and internal/baseline, affine propagation in
// internal/affine, SCAPE routing and pruning in internal/scape,
// cost modelling in internal/plan and the execution engine in internal/core)
// consumes the spec instead of switching on measure identities, so a new
// measure that fits the algebra is registered here once and works everywhere.
//
// # The algebra
//
// Following Section 2.1 of the paper, a measure is one of
//
//   - an L-measure: a per-series location statistic (mean, median, mode);
//
//   - a T-measure: a pairwise dispersion statistic that propagates exactly
//     through affine relationships (covariance, dot product); or
//
//   - a D-measure: a monotone transform of a base T-measure,
//
//     value = f(T, U),    U = Param(a_u, a_v),
//
//     where U is a separable parameter assembled from per-series statistics
//     (variance, squared norm) and f is monotone in T for fixed U.  The
//     classical D-measures of the paper are ratios f(T, U) = T/U (correlation,
//     cosine, Dice, harmonic mean); the algebra also admits decreasing
//     transforms such as the Euclidean distance √(U − 2T).
//
// Monotonicity is what makes a D-measure indexable: SCAPE orders sequence
// pairs by their base T value and reads every pair's measure value from a
// per-epoch column, and a definite interval of T values lifts to a definite
// interval of measure values (Spec.Lift) for the sketch prescreen,
// in both monotone directions.
package measure

import (
	"errors"
	"fmt"
	"math"

	"affinity/internal/interval"
)

// Measure identifies one registered statistical measure.
type Measure int

// The built-in measures.  Their numeric values are stable (snapshots and
// wire formats may persist them); builtin.go registers them in this order and
// panics if the registry ever disagrees.
const (
	// L-measures.
	Mean Measure = iota
	Median
	Mode

	// T-measures.
	Covariance
	DotProduct

	// D-measures.
	Correlation
	Cosine
	Jaccard
	Dice
	HarmonicMean

	// D-measures that fall out of the algebra as monotone-decreasing
	// transforms of the dot product (distances rather than similarities).
	EuclideanDistance
	MeanSquaredDifference
	AngularDistance
)

// Class describes the family a measure belongs to (Section 2.1).
type Class int

// The three classes of measures.
const (
	LocationClass   Class = iota // L-measures: per-series central tendency
	DispersionClass              // T-measures: pairwise variability
	DerivedClass                 // D-measures: transformed T-measures
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case LocationClass:
		return "L"
	case DispersionClass:
		return "T"
	case DerivedClass:
		return "D"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Shared measure errors.  The messages keep their historical "stats:" prefix:
// they predate this package and are part of observable output.
var (
	// ErrUnknownMeasure is returned when a Measure value is not registered.
	ErrUnknownMeasure = errors.New("stats: unknown measure")
	// ErrEmptyInput is returned when a computation receives no samples.
	ErrEmptyInput = errors.New("stats: empty input")
	// ErrLengthMismatch is returned when a pairwise measure receives series
	// of different lengths.
	ErrLengthMismatch = errors.New("stats: length mismatch")
	// ErrZeroNormalizer is returned when a derived measure is undefined for
	// the pair (e.g. correlation of a constant series).
	ErrZeroNormalizer = errors.New("stats: zero normalizer")
)

// SeriesStat bundles the per-series statistics that separable parameters draw
// from: the sample variance and the squared norm ⟨x, x⟩.  The engine and the
// SCAPE index maintain these per series; naive evaluation computes them from
// the raw samples on demand.
type SeriesStat struct {
	Variance float64
	SqNorm   float64
}

// StatMask selects which SeriesStat fields a spec's Param reads, so naive
// evaluation only pays for the passes the measure needs.
type StatMask uint8

// StatMask bits.
const (
	NeedVariance StatMask = 1 << iota
	NeedSqNorm
)

// PivotTerms carries the pivot-side quantities T-measure moments are
// assembled from: the 2-by-2 covariance and Gram blocks of the pivot pair
// matrix (stored as symmetric triples (m11, m12, m22)), its column sums and
// the sample count.
type PivotTerms struct {
	Cov        [3]float64 // (Σ11, Σ12, Σ22)
	Dot        [3]float64 // (Π11, Π12, Π22)
	ColSums    [2]float64 // (h1, h2)
	NumSamples int
}

// Moment is the augmented second-moment matrix M of a pair matrix for one
// T-measure: with ãj = (a1j, a2j, bj) the augmented columns of an affine
// transformation (A, b), the propagated T value of the target pair is the
// quadratic form ã1ᵀ·M·ã2.  This single object subsumes the paper's Eq. 6
// (covariance, H = 0, C = 0) and Eq. 7 (dot product, H = column sums,
// C = m), and its first row is exactly the SCAPE α vector of Observation 1.
type Moment struct {
	S [3]float64 // symmetric 2-by-2 block (s11, s12, s22)
	H [2]float64 // augmented column/row
	C float64    // corner entry
}

// Alpha returns the SCAPE α vector (M's first row): for relationships whose
// first column is the identity on the common series, αᵀβ with β = (a12, a22,
// b2) is the propagated T value.
func (mm Moment) Alpha() [3]float64 { return [3]float64{mm.S[0], mm.S[1], mm.H[0]} }

// Spec is the declarative description of one measure.  Function fields are
// pure: they consult nothing but their arguments, which is what makes every
// layer's use of the spec deterministic and parallelism-independent.
type Spec struct {
	// ID is the registered identity (assigned by Register).
	ID Measure
	// Name is the parseable, user-visible name (e.g. "correlation").
	Name string
	// Class is the measure family.
	Class Class
	// Base is the underlying T-measure a D-measure transforms (the measure
	// itself for L- and T-measures).
	Base Measure

	// Indexable is the one capability flag, a declaration and not a derived
	// fact: the SCAPE index refuses non-indexable measures (e.g. Jaccard,
	// whose transform has a pole inside the reachable T range) and the planner
	// never routes a non-indexable query to the index.
	Indexable bool

	// Doc is a one-line formula/description used for generated documentation
	// and CLI help.
	Doc string

	// EvalLocation computes the measure of one raw series (L-measures only).
	EvalLocation func(x []float64) (float64, error)
	// EvalSorted, when set, computes the same bits as EvalLocation from the
	// series' samples in SortSamples order.  Only order statistics declare it
	// (the mean's rounding depends on summation order); a window that keeps
	// its samples sorted evaluates them without sorting or hashing.
	EvalSorted func(sorted []float64) (float64, error)

	// NaivePasses is the relative cost of one naive evaluation in units of
	// full raw-sample passes; the cost planner multiplies it into the W_N
	// scan term.  L/T-measures that need one pass use 1; D-measures pay the
	// base pass plus the per-series statistic passes.
	NaivePasses float64

	// EvalBase computes the base T value from two raw series (T-measures;
	// inherited from the base spec for D-measures at registration).
	EvalBase func(x, y []float64) (float64, error)
	// EvalTerms computes the pivot terms this T-measure's Moment reads, from
	// the two raw pivot columns (T-measures; inherited for D-measures).  It
	// fills only the fields Moment consumes, so a W_A sweep pays exactly the
	// per-pivot passes the measure needs.
	EvalTerms func(x, y []float64) (PivotTerms, error)
	// Moment assembles the augmented second-moment matrix from pivot terms
	// (T-measures; inherited for D-measures).
	Moment func(p PivotTerms) Moment

	// ParamStats declares which per-series statistics ParamBlock reads.
	ParamStats StatMask
	// ParamBlock assembles the separable parameter U of a chunk of pairs:
	// u[i] from the two series' statistics su[i] and sv[i] (D-measures; nil
	// for L/T).  Param is the form for one pair.
	ParamBlock func(su, sv []SeriesStat, u []float64)
	// ValueBlock applies the monotone transform to a chunk of pairs: out[i]
	// is the measure value from the base T value t[i], the parameter u[i]
	// and the sample count m, NaN where the measure is undefined for the
	// pair.  It returns an error only for an m no pair can take.  out may
	// alias t or u.  T-measures leave it nil (identity).  EvalOrNaN and Eval
	// are the forms for one pair.
	ValueBlock func(t, u []float64, m int, out []float64) error
	// Decreasing reports that the transform is monotone decreasing in t
	// (distances); false means increasing (similarities and all T-measures).
	Decreasing bool
	// BoundsBlock, when non-nil, maps definite base-T intervals [tLo[i],
	// tHi[i]] onto definite value intervals [lo[i], hi[i]] for pairs with
	// parameter u[i] and m samples, for transforms where endpoint evaluation
	// alone is unsound (e.g. Jaccard, whose t/(u−t) has a pole at t = u inside
	// the reachable T range); NaN endpoints where no definite bound exists.
	// Specs without it get the monotone endpoint lift of Lift.
	BoundsBlock func(tLo, tHi, u []float64, m int, lo, hi []float64)
	// Bounded declares that the transform's output is confined to the closed
	// interval [RangeMin, RangeMax] (by clamping or by construction).  Index
	// scans use it to answer a probe disjoint from the range without reading
	// a single value.  Use ±Inf for a half-bounded range.
	Bounded  bool
	RangeMin float64
	RangeMax float64
	// SelfValue is the measure of a series paired with itself, from its own
	// statistics (the MEC matrix diagonal; pairwise measures only).
	SelfValue func(s SeriesStat) (float64, error)
}

// Location reports whether the spec describes an L-measure.
func (s *Spec) Location() bool { return s.Class == LocationClass }

// Pairwise reports whether the spec describes a pairwise (T- or D-) measure.
func (s *Spec) Pairwise() bool { return s.Class != LocationClass }

// Derived reports whether the spec describes a D-measure.
func (s *Spec) Derived() bool { return s.Class == DerivedClass }

// Param is ParamBlock for one pair; 0 for L- and T-measures.
func (s *Spec) Param(u, v SeriesStat) float64 {
	if s.ParamBlock == nil {
		return 0
	}
	buf := struct {
		stats [2]SeriesStat
		u     [1]float64
	}{stats: [2]SeriesStat{u, v}}
	s.ParamBlock(buf.stats[:1], buf.stats[1:], buf.u[:])
	return buf.u[0]
}

// EvalOrNaN is ValueBlock for one pair: NaN where the derived measure is
// undefined, t itself for a T-measure.
func (s *Spec) EvalOrNaN(t, u float64, m int) (float64, error) {
	if s.ValueBlock == nil {
		return t, nil
	}
	buf := [2]float64{t, u}
	if err := s.ValueBlock(buf[:1], buf[1:], m, buf[:1]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Eval is EvalOrNaN with the undefined value reported as ErrZeroNormalizer
// rather than NaN; for T-measures it is the identity.
func (s *Spec) Eval(t, u float64, m int) (float64, error) {
	v, err := s.EvalOrNaN(t, u, m)
	if err == nil && s.Derived() && math.IsNaN(v) {
		return 0, ErrZeroNormalizer
	}
	return v, err
}

// OrNaN maps the "measure undefined for this pair" condition to NaN: a
// result carrying ErrZeroNormalizer becomes (NaN, nil), every other error
// passes through.  Together with the block forms' NaN this is the single
// definition of the engine's NaN semantics — sweeps and MEC matrices report
// the NaN, interval predicates never match it (interval.Contains rejects NaN)
// and top-k heaps never rank it — so every execution path agrees on
// degenerate pairs by construction.
func OrNaN(v float64, err error) (float64, error) {
	if err != nil {
		if errors.Is(err, ErrZeroNormalizer) {
			return math.NaN(), nil
		}
		return 0, err
	}
	return v, nil
}

// Lift lifts definite base-T intervals of a chunk of pairs — [tLo[i], tHi[i]]
// for a pair with parameter u[i] and m samples — to definite intervals of
// measure values [lo[i], hi[i]]: every t in [tLo[i], tHi[i]] has its value in
// [lo[i], hi[i]].  For T-measures the lift is the identity.  D-measures with
// a BoundsBlock delegate to it; otherwise indexable D-measures declare the
// transform monotone in t, so the extrema sit at the interval endpoints and
// evaluating the transform there brackets every reachable value.  An endpoint
// is NaN where no definite bound exists: the T interval is empty or has a NaN
// end, the transform is undefined at an endpoint, or the measure declares no
// usable monotonicity.  lo and hi must not alias the inputs.
func (s *Spec) Lift(tLo, tHi, u []float64, m int, lo, hi []float64) {
	switch {
	case s.ValueBlock == nil:
		copy(lo, tLo)
		copy(hi, tHi)
	case s.BoundsBlock != nil:
		s.BoundsBlock(tLo, tHi, u, m, lo, hi)
	case !s.Indexable:
		fillNaN(lo)
	default:
		tDown, tUp := s.ends(tLo, tHi)
		if s.ValueBlock(tDown, u, m, lo) != nil || s.ValueBlock(tUp, u, m, hi) != nil {
			fillNaN(lo)
		}
	}
	for i := range lo {
		if !(tLo[i] <= tHi[i]) { // also rejects NaN endpoints
			lo[i] = math.NaN()
		}
	}
}

// ends returns the T ends a monotone transform takes a value range's lower
// and upper end from.
func (s *Spec) ends(tLo, tHi []float64) (tDown, tUp []float64) {
	if s.Decreasing {
		return tHi, tLo
	}
	return tLo, tHi
}

// Classify decides the still-ambiguous pairs of a chunk against the predicate
// iv from definite base-T intervals [tLo[i], tHi[i]]: every pair with cls[i]
// == interval.Ambiguous gets the verdict iv.Classify gives its lifted value
// range (Lift), and the other pairs are left
// alone.  It returns how many pairs are left ambiguous; lo and hi receive the
// lifted ranges and must not alias the inputs.
//
// For a predicate bounded on one side only and a monotone transform it
// evaluates first, over the chunk, the value end that can rule a pair out —
// the upper one for "above c", the lower one for "below c" — and the other
// end only for the pairs the first does not rule out.  It skips the other end
// only where it is surely defined and on its side (steady), so every verdict
// is the one both ends give.
func (s *Spec) Classify(iv interval.Interval, tLo, tHi, u []float64, m int, lo, hi []float64, cls []interval.Class) (pending int) {
	above := !iv.Lo.Unbounded && iv.Hi.Unbounded
	below := iv.Lo.Unbounded && !iv.Hi.Unbounded
	if s.ValueBlock == nil || s.BoundsBlock != nil || !s.Indexable || !(above || below) {
		s.Lift(tLo, tHi, u, m, lo, hi)
		for i, c := range cls {
			if c == interval.Ambiguous {
				if cls[i] = iv.Classify(lo[i], hi[i]); cls[i] == interval.Ambiguous {
					pending++
				}
			}
		}
		return pending
	}
	// first is the value end that can rule a pair out, tFirst the T end it
	// comes from; second and tSecond the other.
	tDown, tUp := s.ends(tLo, tHi)
	first, tFirst, second, tSecond := hi, tUp, lo, tDown
	cut := iv.Lo
	if below {
		first, tFirst, second, tSecond = lo, tDown, hi, tUp
		cut = iv.Hi
	}
	if s.ValueBlock(tFirst, u, m, first) != nil {
		for _, c := range cls {
			if c == interval.Ambiguous {
				pending++
			}
		}
		return pending
	}
	n := len(cls)
	tLo, tHi, u, first, tSecond = tLo[:n], tHi[:n], u[:n], first[:n], tSecond[:n]
	for i, c := range cls {
		if c != interval.Ambiguous {
			continue
		}
		if !(tLo[i] <= tHi[i]) { // also rejects NaN endpoints
			pending++
			continue
		}
		v := first[i]
		out := v < cut.Value
		if below {
			out = v > cut.Value
		}
		if (out || (v == cut.Value && cut.Open)) && steady(tSecond[i], u[i]) {
			cls[i] = interval.DefiniteOut
			continue
		}
		_ = s.ValueBlock(tSecond[i:i+1], u[i:i+1], m, second[i:i+1]) // m passed above
		if cls[i] = iv.Classify(lo[i], hi[i]); cls[i] == interval.Ambiguous {
			pending++
		}
	}
	return pending
}

// steady reports that a monotone transform is surely defined at the T
// endpoint t for parameter u, and on the far side of the end evaluated from
// the interval's other T endpoint: u is positive and finite and t is finite.
// Every indexable D-measure without a BoundsBlock promises that of its
// ValueBlock (TestClassifySteadyContract); a zero, infinite or NaN u, or an
// infinite T bound, gets both ends evaluated.
func steady(t, u float64) bool {
	return u > 0 && u <= math.MaxFloat64 && math.Abs(t) <= math.MaxFloat64
}

// fillNaN sets every element of x to NaN.
func fillNaN(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
}

// SketchBoundable reports whether the coefficient-sketch prescreen tier
// (internal/sketch) can derive definite value bounds for this measure: a
// pairwise measure whose base T-measure has a Parseval sketch bound
// (covariance or the dot product) and whose value transform, if any, is
// liftable through Lift (identity, declared monotone, or a custom
// BoundsBlock).  Measures outside this set simply take the exact sweep path.
func (s *Spec) SketchBoundable() bool {
	if !s.Pairwise() {
		return false
	}
	return s.ValueBlock == nil || s.BoundsBlock != nil || s.Indexable
}

// registry state.  Registration happens in package init functions (builtin.go
// and any future extension), which Go runs sequentially before main; lookups
// at query time are read-only, so no locking is needed.
var (
	specs  []*Spec
	byName = make(map[string]*Spec)
)

// Register validates a spec, assigns it the next Measure identity and adds it
// to the registry.  D-measure specs inherit EvalBase/EvalTerms/Moment from
// their (already registered) base T-measure.  Register panics on invalid
// specs: registration happens at init time and a malformed spec is a
// programming error, not a runtime condition.
func Register(s Spec) Measure {
	if s.Name == "" {
		panic("measure: spec without a name")
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("measure: duplicate measure name %q", s.Name))
	}
	id := Measure(len(specs))
	s.ID = id
	switch s.Class {
	case LocationClass:
		if s.EvalLocation == nil {
			panic(fmt.Sprintf("measure: L-measure %q without EvalLocation", s.Name))
		}
		s.Base = id
	case DispersionClass:
		if s.EvalBase == nil || s.Moment == nil || s.EvalTerms == nil {
			panic(fmt.Sprintf("measure: T-measure %q without base evaluators", s.Name))
		}
		// Every exact evaluator runs a base on a blocked kernel
		// (kernel.Matrix.BaseBlock), and there are two: a new measure derives
		// from one of them.
		if id != Covariance && id != DotProduct {
			panic(fmt.Sprintf("measure: T-measure %q has no blocked kernel; derive it from covariance or the dot product", s.Name))
		}
		s.Base = id
	case DerivedClass:
		base := lookup(s.Base)
		if base == nil || base.Class != DispersionClass {
			panic(fmt.Sprintf("measure: D-measure %q has no registered T-measure base", s.Name))
		}
		if s.ParamBlock == nil || s.ValueBlock == nil {
			panic(fmt.Sprintf("measure: D-measure %q without ParamBlock/ValueBlock", s.Name))
		}
		s.EvalBase = base.EvalBase
		s.EvalTerms = base.EvalTerms
		s.Moment = base.Moment
	default:
		panic(fmt.Sprintf("measure: spec %q with unknown class %d", s.Name, int(s.Class)))
	}
	if s.Pairwise() && s.SelfValue == nil {
		panic(fmt.Sprintf("measure: pairwise measure %q without SelfValue", s.Name))
	}
	if s.NaivePasses <= 0 {
		s.NaivePasses = 1
	}
	sp := &s
	specs = append(specs, sp)
	byName[s.Name] = sp
	return id
}

// lookup returns the spec for m, or nil when m is unregistered.
func lookup(m Measure) *Spec {
	if m < 0 || int(m) >= len(specs) {
		return nil
	}
	return specs[m]
}

// Lookup returns the spec for m.  It panics on unregistered values: every
// Measure reaching the engine has been validated at the API boundary, so a
// miss is a programming error.
func Lookup(m Measure) *Spec {
	sp := lookup(m)
	if sp == nil {
		panic(fmt.Sprintf("measure: unregistered measure %d", int(m)))
	}
	return sp
}

// Find returns the spec for m and whether it is registered.
func Find(m Measure) (*Spec, bool) {
	sp := lookup(m)
	return sp, sp != nil
}

// Parse resolves a measure name to its identity in O(1).
func Parse(name string) (Measure, error) {
	if sp, ok := byName[name]; ok {
		return sp.ID, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
}

// Valid reports whether m is a registered measure.
func (m Measure) Valid() bool { return lookup(m) != nil }

// String returns the measure's registered name.
func (m Measure) String() string {
	if sp := lookup(m); sp != nil {
		return sp.Name
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// Class returns the measure's class (L, T or D).  Unregistered values report
// DerivedClass, the historical fallback; callers that need to reject them use
// Valid or Find.
func (m Measure) Class() Class {
	if sp := lookup(m); sp != nil {
		return sp.Class
	}
	return DerivedClass
}

// Pairwise reports whether the measure is defined on a pair of series.
func (m Measure) Pairwise() bool { return m.Class() != LocationClass }

// Base returns, for a D-measure, the underlying T-measure it transforms; for
// L- and T-measures (and unregistered values) it returns the measure itself.
func (m Measure) Base() Measure {
	if sp := lookup(m); sp != nil {
		return sp.Base
	}
	return m
}

// All returns every registered measure in registration order.
func All() []Measure {
	out := make([]Measure, len(specs))
	for i := range specs {
		out[i] = specs[i].ID
	}
	return out
}

// Specs returns every registered spec in registration order.  Callers must
// treat the specs as read-only.
func Specs() []*Spec {
	out := make([]*Spec, len(specs))
	copy(out, specs)
	return out
}

// ByClass returns the registered measures of one class, in registration
// order.
func ByClass(c Class) []Measure {
	var out []Measure
	for _, sp := range specs {
		if sp.Class == c {
			out = append(out, sp.ID)
		}
	}
	return out
}

// IndexableDerived returns the D-measures the SCAPE index can serve: those
// whose spec declares a separable parameter with an invertible monotone
// transform.
func IndexableDerived() []Measure {
	var out []Measure
	for _, sp := range specs {
		if sp.Derived() && sp.Indexable {
			out = append(out, sp.ID)
		}
	}
	return out
}

// NaiveSeriesStat computes the per-series statistics selected by mask from a
// raw series, using the same two-pass formulas as the scalar primitives so
// naive evaluation is bit-identical to the historical direct computations.
func NaiveSeriesStat(mask StatMask, x []float64) (SeriesStat, error) {
	var out SeriesStat
	if mask&NeedVariance != 0 {
		v, err := VarianceOf(x)
		if err != nil {
			return out, err
		}
		out.Variance = v
	}
	if mask&NeedSqNorm != 0 {
		n, err := DotProductOf(x, x)
		if err != nil {
			return out, err
		}
		out.SqNorm = n
	}
	return out, nil
}

// EvalPair computes a pairwise measure from two raw series (the W_N path):
// the base T value from the raw samples, the separable parameter from the
// per-series statistics, then the transform.
func EvalPair(m Measure, x, y []float64) (float64, error) {
	sp := lookup(m)
	if sp == nil {
		return 0, fmt.Errorf("%w: %d", ErrUnknownMeasure, int(m))
	}
	if !sp.Pairwise() {
		return 0, fmt.Errorf("%w: %v is not a pairwise measure", ErrUnknownMeasure, m)
	}
	t, err := sp.EvalBase(x, y)
	if err != nil {
		return 0, err
	}
	if !sp.Derived() {
		return t, nil
	}
	su, err := NaiveSeriesStat(sp.ParamStats, x)
	if err != nil {
		return 0, err
	}
	sv, err := NaiveSeriesStat(sp.ParamStats, y)
	if err != nil {
		return 0, err
	}
	return sp.Eval(t, sp.Param(su, sv), len(x))
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
