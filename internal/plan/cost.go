package plan

import (
	"math"
	"slices"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/scape"
)

// TableStats describes the epoch a query will run against — the inputs the
// cost formulas scale with.  The engine fills it once per epoch.
type TableStats struct {
	// NumSeries (n), NumSamples (m) and NumPairs (n(n-1)/2) describe the
	// window.
	NumSeries  int
	NumSamples int
	NumPairs   int
	// NumPivots is the number of pivot nodes in the SCAPE index (and the
	// number of binary searches a pairwise index query pays).
	NumPivots int
	// FallbackPairs is the number of sequence pairs without an affine
	// relationship (a partial layout, such as one restored from a snapshot
	// that omits pairs): the affine method answers them with a raw-series
	// scan, so they bill at naive cost.
	FallbackPairs int
	// Indexed lists, in ascending order, the measures the epoch's SCAPE index
	// answers interval and top-k queries for; empty when the epoch has no
	// index.  Whether the index route applies is decided from it alone.
	Indexed []measure.Measure
	// SketchCoefficients is the width d of the epoch's coefficient sketches
	// (zero when the sketch tier is disabled), and SketchAmbiguity the
	// epoch's deterministic estimate of the prescreen's ambiguous fraction —
	// the mean relative bound width across series, which is the chance a
	// pair's bound straddles a query endpoint.  Both derive from the epoch
	// state alone, so sketch-aware plans stay identical at any parallelism.
	SketchCoefficients int
	SketchAmbiguity    float64
}

// CostModel prices a query per execution method.  The coefficients are
// per-operation costs in nanosecond-scale abstract units, calibrated offline
// against the planner crossover sweep (EXPERIMENTS.md, "Cost-based planner
// crossover"); their ratios, not their absolute values, drive the choices.  The model is deliberately blind to the worker
// count: parallelism speeds every method by roughly the same factor, and
// keeping it out of the formulas makes plan choices identical at any
// Parallelism level.
type CostModel struct {
	// SampleCost is the cost of touching one raw sample in a naive
	// computation (the W_N inner loop).
	SampleCost float64
	// AffinePairCost is the cost of one closed-form propagation through an
	// affine relationship (map lookup + a handful of flops).
	AffinePairCost float64
	// LookupCost is the cost of reading one cached per-series estimate (the
	// W_A location path).
	LookupCost float64
	// TreeStepCost is the cost of one step of a search in a sorted container
	// (a level of a tree descent when the containers were B-trees; the
	// coefficient was calibrated then and a binary search takes as many).
	TreeStepCost float64
	// CandidateCost is the cost of examining one index entry in a best-first
	// top-k traversal.
	CandidateCost float64
	// RowCost is the cost of emitting one result row.
	RowCost float64
}

// DefaultCostModel returns the calibrated default coefficients.
func DefaultCostModel() CostModel {
	return CostModel{
		SampleCost:     1.5,
		AffinePairCost: 55,
		LookupCost:     4,
		TreeStepCost:   25,
		CandidateCost:  45,
		RowCost:        12,
	}
}

// Indexes reports whether the epoch's index answers queries over m.
func (st TableStats) Indexes(m measure.Measure) bool { return slices.Contains(st.Indexed, m) }

// defaultSelectivityFrac is the assumed result fraction when no index count
// is at hand.  It only weights the emit term, which no choice depends on.
const defaultSelectivityFrac = 0.1

// Plan prices every applicable method for the query and returns the decision.
// Whether the index applies comes from st alone.  sel is the index's count of
// an interval query's rows, or nil when none was asked for; it fills
// EstimatedRows and nothing else can depend on it: every method emits the
// same rows, so the choice compares the methods' costs without the emit term
// they share, which is added to the cost columns afterwards for display.
//
// The per-measure coefficients are keyed by the measure's spec shape rather
// than its identity: the W_N scan term scales with Spec.NaivePasses (a
// D-measure pays the base pass plus its per-series statistic passes, a median
// pays its sort) and the W_A fallback term pays the same naive passes.  A
// measure registered tomorrow is priced correctly today.
func (c CostModel) Plan(spec QuerySpec, st TableStats, sel *scape.Selectivity) Plan {
	p := Plan{
		Spec:       spec,
		CostNaive:  math.Inf(1),
		CostAffine: math.Inf(1),
		CostIndex:  math.Inf(1),
		CostSketch: math.Inf(1),
	}
	sp, known := measure.Find(spec.Measure)
	if !known {
		// An unregistered measure prices nothing; execution will reject it
		// with ErrUnknownMeasure regardless of the chosen method.
		p.Method, p.EstimatedCost = MethodNaive, p.CostNaive
		return p
	}
	if sel != nil {
		p.EstimatedRows = sel.Rows
		p.SelectivityExact = true
	} else {
		p.EstimatedRows = c.heuristicRows(spec, sp, st)
	}
	passes := sp.NaivePasses
	indexed := st.Indexes(spec.Measure)

	switch spec.Kind {
	case KindCompute:
		if sp.Location() {
			k := float64(spec.NumTargets)
			p.CostNaive = k * float64(st.NumSamples) * c.SampleCost * passes
			p.CostAffine = k * c.LookupCost
		} else {
			pairs := float64(spec.NumTargets) * float64(spec.NumTargets+1) / 2
			p.CostNaive = pairs * float64(st.NumSamples) * c.SampleCost * passes
			p.CostAffine = pairs * (c.AffinePairCost + c.fallbackFrac(st)*c.naivePairCost(st, passes))
		}

	case KindInterval:
		if sp.Location() {
			p.CostNaive = float64(st.NumSeries) * float64(st.NumSamples) * c.SampleCost * passes
			p.CostAffine = float64(st.NumSeries) * c.LookupCost
		} else {
			p.CostNaive = float64(st.NumPairs) * float64(st.NumSamples) * c.SampleCost * passes
			// A sketch-enabled epoch executes the naive route through the
			// filter-and-refine prescreen, so the naive price IS the sketch
			// price: the O(d)-per-pair bound pass plus the ambiguous
			// fraction's exact evaluations.  A half-bounded (MET) predicate
			// has one endpoint to straddle instead of two, halving the
			// ambiguous estimate.
			if st.SketchCoefficients > 0 && sp.SketchBoundable() {
				amb := st.SketchAmbiguity * boundedEndpoints(spec.Interval) / 2
				p.CostSketch = c.sketchCost(st, passes, amb)
				p.CostNaive = p.CostSketch
			}
			// Pairs without a relationship fall back to a raw scan plus the
			// failed lookup, so a mostly unassigned epoch prices affine above
			// naive.
			p.CostAffine = float64(st.NumPairs-st.FallbackPairs)*c.AffinePairCost +
				float64(st.FallbackPairs)*(c.LookupCost+c.naivePairCost(st, passes))
			// One binary search per pivot node: a T-measure node scans its
			// ξ window, a D-measure node is decided by its value column's
			// extremes or scanned — neither evaluates anything per entry.
			if indexed {
				p.CostIndex = c.indexSteps(st)
			}
		}

	case KindTopK:
		// A top-k query has no a-priori selectivity: every sweep method pays
		// its full scan plus the k-heap, while the best-first index traversal
		// examines roughly the result plus one boundary band per pivot before
		// the optimistic bounds stop it.
		if sp.Location() {
			p.EstimatedRows = min(spec.K, st.NumSeries)
			p.CostNaive = float64(st.NumSeries) * float64(st.NumSamples) * c.SampleCost * passes
			p.CostAffine = float64(st.NumSeries) * c.LookupCost
		} else {
			p.EstimatedRows = min(spec.K, st.NumPairs)
			p.CostNaive = float64(st.NumPairs) * float64(st.NumSamples) * c.SampleCost * passes
			// The sketch-enabled naive route classifies each pair against
			// its heap's running threshold and refines what the bounds cannot
			// rule out; that fraction is governed by the same bound width the
			// ambiguity estimates.
			if st.SketchCoefficients > 0 && sp.SketchBoundable() {
				p.CostSketch = c.sketchCost(st, passes, st.SketchAmbiguity)
				p.CostNaive = p.CostSketch
			}
			p.CostAffine = float64(st.NumPairs-st.FallbackPairs)*c.AffinePairCost +
				float64(st.FallbackPairs)*(c.LookupCost+c.naivePairCost(st, passes))
			if indexed {
				p.Candidates = min(spec.K+st.NumPivots, st.NumPairs)
				p.CostIndex = c.indexSteps(st) + float64(p.Candidates)*c.CandidateCost
			}
		}
	}

	// Pick the cheapest applicable method; on exact ties prefer the index,
	// then affine (the structures that scale), so the choice is deterministic.
	method, cost := MethodIndex, p.CostIndex
	if p.CostAffine < cost {
		method, cost = MethodAffine, p.CostAffine
	}
	if p.CostNaive < cost {
		method = MethodNaive
	}
	emit := float64(p.EstimatedRows) * c.RowCost
	p.CostNaive += emit
	p.CostAffine += emit
	p.CostIndex += emit
	p.CostSketch += emit
	return p.WithMethod(method)
}

// indexSteps prices the binary searches of a pairwise index scan: one per
// pivot node, over the node's share of the pairs.
func (c CostModel) indexSteps(st TableStats) float64 {
	perPivot := log2(divCeil(st.NumPairs, st.NumPivots))
	return float64(st.NumPivots) * c.TreeStepCost * perPivot
}

// RepairCost prices the delta repair of a cached interval result across an
// Advance: one closed-form affine propagation per candidate pair (the cached
// rows plus the epochs' stale sets), the exact-selectivity verification probe
// (one rank search per pivot), and the emit term.  The executor
// repairs only when this undercuts the stored plan's CostAffine — the price
// of re-running the sweep the entry came from — so a mostly-stale epoch falls
// back to a cold scan exactly like the ROADMAP's standing-query item asks.
func (c CostModel) RepairCost(candidates, rows int, st TableStats) float64 {
	return float64(candidates)*c.AffinePairCost + c.indexSteps(st) + float64(rows)*c.RowCost
}

// sketchCost prices the filter-and-refine naive sweep: the prescreen touches
// d sketched coefficients per pair (the merge-intersection bound), the
// estimated ambiguous fraction pays the full exact evaluation, and emission
// is the emit term every method shares.
func (c CostModel) sketchCost(st TableStats, passes, ambFrac float64) float64 {
	if ambFrac > 1 {
		ambFrac = 1
	}
	return float64(st.NumPairs)*float64(st.SketchCoefficients)*c.SampleCost +
		ambFrac*float64(st.NumPairs)*c.naivePairCost(st, passes)
}

// boundedEndpoints counts an interval predicate's finite endpoints (0–2): the
// boundaries a sketched bound can straddle.
func boundedEndpoints(iv interval.Interval) float64 {
	n := 0.0
	if !iv.Lo.Unbounded {
		n++
	}
	if !iv.Hi.Unbounded {
		n++
	}
	return n
}

// heuristicRows is the result-size guess without an index count.
func (c CostModel) heuristicRows(spec QuerySpec, sp *measure.Spec, st TableStats) int {
	if spec.Kind == KindCompute {
		return 0
	}
	if sp.Location() {
		return int(defaultSelectivityFrac * float64(st.NumSeries))
	}
	return int(defaultSelectivityFrac * float64(st.NumPairs))
}

// fallbackFrac is the fraction of pairs the affine method answers naively.
func (c CostModel) fallbackFrac(st TableStats) float64 {
	if st.NumPairs == 0 {
		return 0
	}
	return float64(st.FallbackPairs) / float64(st.NumPairs)
}

// naivePairCost is the cost of one from-scratch pairwise computation at the
// spec's pass weight.
func (c CostModel) naivePairCost(st TableStats, passes float64) float64 {
	return float64(st.NumSamples) * c.SampleCost * passes
}

// log2 returns log2(n+2): a tree-height proxy that stays positive for tiny n.
func log2(n int) float64 { return math.Log2(float64(n + 2)) }

// divCeil returns ceil(a/b), with b clamped to at least 1.
func divCeil(a, b int) int {
	if b < 1 {
		b = 1
	}
	return (a + b - 1) / b
}
