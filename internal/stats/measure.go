// Package stats holds aliases of the measure identities the benchmark module
// (bench/) compiles against, and nothing else: the measures, their scalar
// primitives and RMSE live in internal/measure, an exact L-measure of a
// window series in timeseries.DataMatrix.Locations, the slid pair-moment
// column in internal/kernel.  Nothing outside bench/ imports it; it goes when
// the benchmark is next rebuilt.
package stats

import "affinity/internal/measure"

// Measure identifies one of the statistical measures supported by Affinity.
type Measure = measure.Measure

// The measures bench/ names.
const (
	Mean                  = measure.Mean
	Covariance            = measure.Covariance
	DotProduct            = measure.DotProduct
	Correlation           = measure.Correlation
	Cosine                = measure.Cosine
	Jaccard               = measure.Jaccard
	EuclideanDistance     = measure.EuclideanDistance
	MeanSquaredDifference = measure.MeanSquaredDifference
	AngularDistance       = measure.AngularDistance
)
