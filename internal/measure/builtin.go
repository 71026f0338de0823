package measure

import "math"

// Built-in measure registration.  The order matches the exported Measure
// constants; mustBe asserts the registry hands out the expected identity so
// persisted enum values can never silently shift.
//
// The three distance measures at the end are the proof that the algebra pays
// for itself: they are monotone-decreasing transforms of the dot product with
// separable parameters, so registering them here is all it takes for naive
// evaluation, W_A propagation, SCAPE indexing, sketch bounds, cost-based
// planning and batch grouping to serve them — no other layer names them.

func mustBe(want Measure, got Measure) {
	if got != want {
		panic("measure: builtin registration order drifted from the Measure constants")
	}
}

func init() {
	// L-measures.
	mustBe(Mean, Register(Spec{
		Name:         "mean",
		Class:        LocationClass,
		Doc:          "arithmetic mean of the series",
		Indexable:    true,
		EvalLocation: MeanOf,
		NaivePasses:  1,
	}))
	mustBe(Median, Register(Spec{
		Name:         "median",
		Class:        LocationClass,
		Doc:          "middle value of the sorted series",
		Indexable:    true,
		EvalLocation: MedianOf,
		EvalSorted:   MedianOfSorted,
		NaivePasses:  2, // copy + sort dominates a plain scan
	}))
	mustBe(Mode, Register(Spec{
		Name:      "mode",
		Class:     LocationClass,
		Doc:       "most frequent value (bucketed at 1e-4)",
		Indexable: true,
		EvalLocation: func(x []float64) (float64, error) {
			return ModeOf(x, DefaultModePrecision)
		},
		EvalSorted: func(sorted []float64) (float64, error) {
			return ModeOfSorted(sorted, DefaultModePrecision)
		},
		NaivePasses: 2, // hash-count pass + bucket scan
	}))

	// T-measures.
	mustBe(Covariance, Register(Spec{
		Name:      "covariance",
		Class:     DispersionClass,
		Doc:       "sample covariance Σ12 (normalized by m−1)",
		Indexable: true,
		EvalBase:  CovarianceOf,
		EvalTerms: func(x, y []float64) (PivotTerms, error) {
			vx, err := VarianceOf(x)
			if err != nil {
				return PivotTerms{}, err
			}
			vy, err := VarianceOf(y)
			if err != nil {
				return PivotTerms{}, err
			}
			cxy, err := CovarianceOf(x, y)
			if err != nil {
				return PivotTerms{}, err
			}
			return PivotTerms{Cov: [3]float64{vx, cxy, vy}, NumSamples: len(x)}, nil
		},
		Moment: func(p PivotTerms) Moment {
			return Moment{S: p.Cov}
		},
		SelfValue:   func(s SeriesStat) (float64, error) { return s.Variance, nil },
		NaivePasses: 1,
	}))
	mustBe(DotProduct, Register(Spec{
		Name:      "dot-product",
		Class:     DispersionClass,
		Doc:       "inner product Π12 = ⟨u, v⟩",
		Indexable: true,
		EvalBase:  DotProductOf,
		EvalTerms: func(x, y []float64) (PivotTerms, error) {
			dxx, err := DotProductOf(x, x)
			if err != nil {
				return PivotTerms{}, err
			}
			dxy, err := DotProductOf(x, y)
			if err != nil {
				return PivotTerms{}, err
			}
			dyy, err := DotProductOf(y, y)
			if err != nil {
				return PivotTerms{}, err
			}
			return PivotTerms{
				Dot:        [3]float64{dxx, dxy, dyy},
				ColSums:    [2]float64{SumOf(x), SumOf(y)},
				NumSamples: len(x),
			}, nil
		},
		Moment: func(p PivotTerms) Moment {
			return Moment{S: p.Dot, H: p.ColSums, C: float64(p.NumSamples)}
		},
		SelfValue:   func(s SeriesStat) (float64, error) { return s.SqNorm, nil },
		NaivePasses: 1,
	}))

	// Ratio D-measures (monotone increasing, value = T/U).
	mustBe(Correlation, Register(Spec{
		Name:       "correlation",
		Class:      DerivedClass,
		Base:       Covariance,
		Doc:        "Pearson correlation Σ12/√(Σ11·Σ22), clamped to [−1, 1]",
		Indexable:  true,
		ParamStats: NeedVariance,
		ParamBlock: func(su, sv []SeriesStat, u []float64) {
			su, sv = su[:len(u)], sv[:len(u)]
			for i := range u {
				u[i] = math.Sqrt(su[i].Variance * sv[i].Variance)
			}
		},
		ValueBlock: func(t, u []float64, _ int, out []float64) error {
			t, u = t[:len(out)], u[:len(out)]
			for i := range out {
				if u[i] == 0 {
					out[i] = math.NaN()
				} else {
					out[i] = clamp(t[i]/u[i], -1, 1)
				}
			}
			return nil
		},
		Bounded:  true,
		RangeMin: -1,
		RangeMax: 1,
		SelfValue: func(s SeriesStat) (float64, error) {
			if s.Variance == 0 {
				return 0, ErrZeroNormalizer
			}
			return 1, nil
		},
		NaivePasses: 2,
	}))
	mustBe(Cosine, Register(Spec{
		Name:        "cosine",
		Class:       DerivedClass,
		Base:        DotProduct,
		Doc:         "cosine similarity ⟨u,v⟩/(‖u‖·‖v‖)",
		Indexable:   true,
		ParamStats:  NeedSqNorm,
		ParamBlock:  normProduct,
		ValueBlock:  ratioValues,
		SelfValue:   unitSelfValue,
		NaivePasses: 2,
	}))
	mustBe(Jaccard, Register(Spec{
		Name:  "jaccard",
		Class: DerivedClass,
		Base:  DotProduct,
		Doc:   "generalized Jaccard ⟨u,v⟩/(‖u‖²+‖v‖²−⟨u,v⟩)",
		// Not indexable: the transform t/(u−t) has a pole at t = u, which is
		// inside the reachable dot-product range, so the transform is not
		// monotone there (Section 5.1 excludes it for the same reason).  This is a declared capability, not a
		// special case: every layer routes around the index from this flag.
		Indexable:  false,
		ParamStats: NeedSqNorm,
		ParamBlock: normSum,
		ValueBlock: func(t, u []float64, _ int, out []float64) error {
			t, u = t[:len(out)], u[:len(out)]
			for i := range out {
				if denom := u[i] - t[i]; denom == 0 {
					out[i] = math.NaN()
				} else {
					out[i] = t[i] / denom
				}
			}
			return nil
		},
		// t/(u−t) is increasing in t on either side of its pole at t = u
		// (derivative u/(u−t)² with u = ‖u‖²+‖v‖² ≥ 0), so a T-interval
		// confined to one branch is bounded by its endpoints; an interval
		// touching the pole has no finite bound and stays ambiguous.
		BoundsBlock: func(tLo, tHi, u []float64, _ int, lo, hi []float64) {
			tLo, tHi, u, hi = tLo[:len(lo)], tHi[:len(lo)], u[:len(lo)], hi[:len(lo)]
			for i := range lo {
				if !(tLo[i] <= tHi[i]) || math.IsNaN(u[i]) || u[i] <= 0 || (!(tHi[i] < u[i]) && !(tLo[i] > u[i])) {
					lo[i], hi[i] = math.NaN(), math.NaN()
					continue
				}
				lo[i] = tLo[i] / (u[i] - tLo[i])
				hi[i] = tHi[i] / (u[i] - tHi[i])
			}
		},
		SelfValue:   unitSelfValue,
		NaivePasses: 2,
	}))
	mustBe(Dice, Register(Spec{
		Name:       "dice",
		Class:      DerivedClass,
		Base:       DotProduct,
		Doc:        "generalized Dice 2⟨u,v⟩/(‖u‖²+‖v‖²)",
		Indexable:  true,
		ParamStats: NeedSqNorm,
		ParamBlock: func(su, sv []SeriesStat, u []float64) {
			su, sv = su[:len(u)], sv[:len(u)]
			for i := range u {
				u[i] = (su[i].SqNorm + sv[i].SqNorm) / 2
			}
		},
		ValueBlock:  ratioValues,
		SelfValue:   unitSelfValue,
		NaivePasses: 2,
	}))
	mustBe(HarmonicMean, Register(Spec{
		Name:       "harmonic-mean",
		Class:      DerivedClass,
		Base:       DotProduct,
		Doc:        "harmonic-mean similarity ⟨u,v⟩·(‖u‖²+‖v‖²)/(‖u‖²·‖v‖²)",
		Indexable:  true,
		ParamStats: NeedSqNorm,
		ParamBlock: func(su, sv []SeriesStat, u []float64) {
			su, sv = su[:len(u)], sv[:len(u)]
			for i := range u {
				if sum := su[i].SqNorm + sv[i].SqNorm; sum == 0 {
					u[i] = 0
				} else {
					u[i] = su[i].SqNorm * sv[i].SqNorm / sum
				}
			}
		},
		ValueBlock: ratioValues,
		SelfValue: func(s SeriesStat) (float64, error) {
			if s.SqNorm == 0 {
				return 0, ErrZeroNormalizer
			}
			return 2, nil
		},
		NaivePasses: 2,
	}))

	// Distance D-measures (monotone decreasing transforms of the dot
	// product).  These exercise the decreasing branch of every monotone
	// lift (Spec.Lift): a definite T interval maps to a value interval
	// with its ends swapped.
	mustBe(EuclideanDistance, Register(Spec{
		Name:       "euclidean",
		Class:      DerivedClass,
		Base:       DotProduct,
		Doc:        "Euclidean distance √(‖u‖²+‖v‖²−2⟨u,v⟩)",
		Indexable:  true,
		ParamStats: NeedSqNorm,
		ParamBlock: normSum,
		ValueBlock: func(t, u []float64, _ int, out []float64) error {
			t, u = t[:len(out)], u[:len(out)]
			for i := range out {
				diff := u[i] - 2*t[i]
				if diff < 0 { // rounding excursion below ‖u−v‖² = 0
					diff = 0
				}
				out[i] = math.Sqrt(diff)
			}
			return nil
		},
		Decreasing:  true,
		Bounded:     true,
		RangeMin:    0,
		RangeMax:    math.Inf(1),
		SelfValue:   func(SeriesStat) (float64, error) { return 0, nil },
		NaivePasses: 2,
	}))
	mustBe(MeanSquaredDifference, Register(Spec{
		Name:       "mean-squared-diff",
		Class:      DerivedClass,
		Base:       DotProduct,
		Doc:        "mean squared difference (‖u‖²+‖v‖²−2⟨u,v⟩)/m",
		Indexable:  true,
		ParamStats: NeedSqNorm,
		ParamBlock: normSum,
		ValueBlock: func(t, u []float64, m int, out []float64) error {
			t, u = t[:len(out)], u[:len(out)]
			if m <= 0 {
				return ErrEmptyInput
			}
			for i := range out {
				diff := u[i] - 2*t[i]
				if diff < 0 {
					diff = 0
				}
				out[i] = diff / float64(m)
			}
			return nil
		},
		Decreasing:  true,
		Bounded:     true,
		RangeMin:    0,
		RangeMax:    math.Inf(1),
		SelfValue:   func(SeriesStat) (float64, error) { return 0, nil },
		NaivePasses: 2,
	}))
	mustBe(AngularDistance, Register(Spec{
		Name:       "angular",
		Class:      DerivedClass,
		Base:       DotProduct,
		Doc:        "angular distance arccos(cosine)/π ∈ [0, 1]",
		Indexable:  true,
		ParamStats: NeedSqNorm,
		ParamBlock: normProduct,
		ValueBlock: func(t, u []float64, _ int, out []float64) error {
			t, u = t[:len(out)], u[:len(out)]
			for i := range out {
				if u[i] == 0 {
					out[i] = math.NaN()
				} else {
					out[i] = math.Acos(clamp(t[i]/u[i], -1, 1)) / math.Pi
				}
			}
			return nil
		},
		Decreasing: true,
		Bounded:    true,
		RangeMin:   0,
		RangeMax:   1,
		SelfValue: func(s SeriesStat) (float64, error) {
			if s.SqNorm == 0 {
				return 0, ErrZeroNormalizer
			}
			return 0, nil
		},
		NaivePasses: 2,
	}))
}

// ratioValues is the shared increasing transform t/u of the similarity
// D-measures.
func ratioValues(t, u []float64, _ int, out []float64) error {
	t, u = t[:len(out)], u[:len(out)]
	for i := range out {
		if u[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = t[i] / u[i]
		}
	}
	return nil
}

// normProduct is the parameter √(‖u‖²·‖v‖²) of cosine and the angular
// distance.
func normProduct(su, sv []SeriesStat, u []float64) {
	su, sv = su[:len(u)], sv[:len(u)]
	for i := range u {
		u[i] = math.Sqrt(su[i].SqNorm * sv[i].SqNorm)
	}
}

// normSum is the parameter ‖u‖² + ‖v‖² of Jaccard and the distances.
func normSum(su, sv []SeriesStat, u []float64) {
	su, sv = su[:len(u)], sv[:len(u)]
	for i := range u {
		u[i] = su[i].SqNorm + sv[i].SqNorm
	}
}

// unitSelfValue is the diagonal of the normalized similarity measures: a
// series is perfectly similar to itself unless it is identically zero.
func unitSelfValue(s SeriesStat) (float64, error) {
	if s.SqNorm == 0 {
		return 0, ErrZeroNormalizer
	}
	return 1, nil
}
