// Package stats implements the statistical measures supported by the
// Affinity framework and their naive (from scratch) computation.
//
// Following Section 2.1 of the paper, measures are grouped into three
// classes:
//
//   - L-measures (location): mean, median, mode — defined per series;
//   - T-measures (dispersion): covariance, dot product — defined per pair of
//     series;
//   - D-measures (derived): monotone transforms of a base T-measure under a
//     separable parameter — the correlation coefficient, the dot-product
//     similarity family (cosine, Jaccard, Dice, harmonic mean) and the
//     distance family (Euclidean, mean squared difference, angular).
//
// The measures themselves are declared in internal/measure as registry-backed
// Specs; this package re-exports the identities and evaluates them naively
// from raw series (the paper's W_N method).  Code that needs the full
// declarative spec (capability flags, transforms, moments) imports
// internal/measure directly.
package stats

import (
	"affinity/internal/measure"
)

// Measure identifies one of the statistical measures supported by Affinity.
type Measure = measure.Measure

// The supported measures (see internal/measure for the registry).
const (
	// L-measures.
	Mean   = measure.Mean
	Median = measure.Median
	Mode   = measure.Mode

	// T-measures.
	Covariance = measure.Covariance
	DotProduct = measure.DotProduct

	// D-measures.
	Correlation  = measure.Correlation
	Cosine       = measure.Cosine
	Jaccard      = measure.Jaccard
	Dice         = measure.Dice
	HarmonicMean = measure.HarmonicMean

	// Distance D-measures (monotone-decreasing transforms).
	EuclideanDistance     = measure.EuclideanDistance
	MeanSquaredDifference = measure.MeanSquaredDifference
	AngularDistance       = measure.AngularDistance
)

// Class describes the family a measure belongs to.
type Class = measure.Class

// The three classes of measures from Section 2.1.
const (
	LocationClass   = measure.LocationClass
	DispersionClass = measure.DispersionClass
	DerivedClass    = measure.DerivedClass
)

// Shared measure errors, aliased from the measure registry.
var (
	// ErrUnknownMeasure is returned when a Measure value is out of range.
	ErrUnknownMeasure = measure.ErrUnknownMeasure
	// ErrEmptyInput is returned when a computation receives no samples.
	ErrEmptyInput = measure.ErrEmptyInput
	// ErrLengthMismatch is returned when a pairwise measure receives series of
	// different lengths.
	ErrLengthMismatch = measure.ErrLengthMismatch
	// ErrZeroNormalizer is returned when a derived measure would divide by a
	// zero normalizer (e.g. correlation of a constant series).
	ErrZeroNormalizer = measure.ErrZeroNormalizer
)

// ParseMeasure converts a measure name (as produced by String) back to a
// Measure value with one registry map lookup.
func ParseMeasure(name string) (Measure, error) { return measure.Parse(name) }

// AllMeasures returns every registered measure, useful for exhaustive tests
// and for workload generators.
func AllMeasures() []Measure { return measure.All() }

// LMeasures returns the registered location measures.
func LMeasures() []Measure { return measure.ByClass(measure.LocationClass) }

// TMeasures returns the registered dispersion measures.
func TMeasures() []Measure { return measure.ByClass(measure.DispersionClass) }

// DMeasures returns the registered derived measures.
func DMeasures() []Measure { return measure.ByClass(measure.DerivedClass) }

// OrNaN re-exports measure.OrNaN, the single definition of the engine's NaN
// semantics for undefined (zero-normalizer) measure values.
func OrNaN(v float64, err error) (float64, error) { return measure.OrNaN(v, err) }
