// Package interval defines the canonical value predicate of the query stack:
// an interval of measure values with independently open, closed or unbounded
// endpoints.
//
// The paper's measure threshold (MET) and measure range (MER) queries are both
// instances of one logical object — "return the entries whose measure value
// lies in an interval":
//
//	MET m > τ     ⇔  value ∈ (τ, +∞)
//	MET m < τ     ⇔  value ∈ (−∞, τ)
//	MER m ∈ [l,u] ⇔  value ∈ [l, u]
//
// Every layer (the SCAPE scans and selectivity estimates in internal/scape,
// the sweep predicates in internal/core, the logical query specs in
// internal/plan and the public API) consumes this single type instead of
// carrying parallel threshold and range code paths.  Top-k queries reuse it as
// the running predicate [v_k, ·] that tightens as the result heap fills.
package interval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bound is one endpoint of an interval.
type Bound struct {
	// Value is the endpoint; ignored when Unbounded.
	Value float64
	// Open excludes the endpoint value itself (strict inequality).
	Open bool
	// Unbounded places no constraint on this side.
	Unbounded bool
}

// Closed returns a bound that includes its endpoint.
func Closed(v float64) Bound { return Bound{Value: v} }

// Open returns a bound that excludes its endpoint.
func Open(v float64) Bound { return Bound{Value: v, Open: true} }

// Unbounded returns the absent bound.
func Unbounded() Bound { return Bound{Unbounded: true} }

// Limit returns the bound's value with unbounded endpoints mapped to ±infinity
// (sign < 0 for a lower bound).
func (b Bound) Limit(sign int) float64 {
	if b.Unbounded {
		return math.Inf(sign)
	}
	return b.Value
}

// Interval is a set of values between two bounds.  The zero value is the
// degenerate closed interval [0, 0]; use the constructors.
type Interval struct {
	Lo, Hi Bound
}

// New builds an interval from two bounds.
func New(lo, hi Bound) Interval { return Interval{Lo: lo, Hi: hi} }

// GreaterThan returns (tau, +∞): the predicate of a MET "above" query.
func GreaterThan(tau float64) Interval { return Interval{Lo: Open(tau), Hi: Unbounded()} }

// AtLeast returns [tau, +∞).
func AtLeast(tau float64) Interval { return Interval{Lo: Closed(tau), Hi: Unbounded()} }

// LessThan returns (−∞, tau): the predicate of a MET "below" query.
func LessThan(tau float64) Interval { return Interval{Lo: Unbounded(), Hi: Open(tau)} }

// AtMost returns (−∞, tau].
func AtMost(tau float64) Interval { return Interval{Lo: Unbounded(), Hi: Closed(tau)} }

// Between returns the closed interval [lo, hi]: the predicate of a MER query.
func Between(lo, hi float64) Interval { return Interval{Lo: Closed(lo), Hi: Closed(hi)} }

// All returns the unbounded interval (−∞, +∞).
func All() Interval { return Interval{Lo: Unbounded(), Hi: Unbounded()} }

// Contains reports whether v satisfies the predicate.  NaN never does.
func (iv Interval) Contains(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	if !iv.Lo.Unbounded {
		if iv.Lo.Open {
			if !(v > iv.Lo.Value) {
				return false
			}
		} else if !(v >= iv.Lo.Value) {
			return false
		}
	}
	if !iv.Hi.Unbounded {
		if iv.Hi.Open {
			if !(v < iv.Hi.Value) {
				return false
			}
		} else if !(v <= iv.Hi.Value) {
			return false
		}
	}
	return true
}

// Span returns the closed range [lo, hi] of the values the predicate
// accepts: Contains(v) == (lo <= v && v <= hi) for every float64 v, NaN
// included (no comparison with NaN holds).  An open endpoint moves to the
// next float inward, an unbounded one to the infinity on its side, and an
// open infinite endpoint, which admits nothing, to NaN.  Compiled once, the
// span answers Contains without a branch on the endpoint kinds — what the
// sweep's compaction loops test per value.
func (iv Interval) Span() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if !iv.Lo.Unbounded {
		lo = iv.Lo.Value
		if iv.Lo.Open {
			lo = openEnd(lo, 1)
		}
	}
	if !iv.Hi.Unbounded {
		hi = iv.Hi.Value
		if iv.Hi.Open {
			hi = openEnd(hi, -1)
		}
	}
	return lo, hi
}

// openEnd returns the first float past v in direction dir (+1 up, −1 down),
// NaN when v is the infinity in that direction.
func openEnd(v float64, dir int) float64 {
	if math.IsInf(v, dir) {
		return math.NaN()
	}
	return math.Nextafter(v, math.Inf(dir))
}

// Class is the verdict on a definite range of values [lo, hi] — every value
// a pair can take lies in it — against an interval: the prescreen stages
// decide a pair on it without evaluating the pair.
type Class uint8

// The three verdicts.
const (
	// Ambiguous means the range straddles an endpoint of the interval (or no
	// definite range exists): the pair needs exact evaluation.
	Ambiguous Class = iota
	// DefiniteIn means every value of the range satisfies the predicate.
	DefiniteIn
	// DefiniteOut means no value of the range satisfies the predicate.
	DefiniteOut
)

// Classify compares a definite value range [lo, hi] against the predicate.
// Invalid ranges (lo > hi, NaN) classify as Ambiguous, so degenerate inputs
// always take the exact path.  DefiniteIn follows from the predicate's
// convexity: an interval containing both ends contains everything between
// them.
func (iv Interval) Classify(lo, hi float64) Class {
	if !(lo <= hi) {
		return Ambiguous
	}
	if iv.Contains(lo) && iv.Contains(hi) {
		return DefiniteIn
	}
	if !iv.Lo.Unbounded && (hi < iv.Lo.Value || (hi == iv.Lo.Value && iv.Lo.Open)) {
		return DefiniteOut
	}
	if !iv.Hi.Unbounded && (lo > iv.Hi.Value || (lo == iv.Hi.Value && iv.Hi.Open)) {
		return DefiniteOut
	}
	return Ambiguous
}

// Canonical returns the normal form of the interval: the representation every
// equal-meaning spelling maps to.  An unbounded endpoint ignores its Value and
// Open fields, so ">= τ" written as {Closed(τ), Unbounded} and "[τ, +∞)"
// written as {Closed(τ), Bound{Value: +Inf, Unbounded: true}} describe exactly
// the same value set while comparing unequal with ==.  Canonical zeroes the
// ignored fields, making == on canonical intervals coincide with predicate
// equality for every interval whose bounded endpoints are finite — which is
// what lets them serve as comparable map keys (the query cache keys on
// canonical intervals).  A closed −Inf lower or +Inf upper endpoint is folded
// into its unbounded equivalent — "v >= −Inf" constrains nothing — while the
// open spellings are left alone: "v < +Inf" excludes +Inf itself, which
// "unbounded" does not.
func (iv Interval) Canonical() Interval {
	if iv.Lo.Unbounded || (!iv.Lo.Open && math.IsInf(iv.Lo.Value, -1)) {
		iv.Lo = Bound{Unbounded: true}
	}
	if iv.Hi.Unbounded || (!iv.Hi.Open && math.IsInf(iv.Hi.Value, 1)) {
		iv.Hi = Bound{Unbounded: true}
	}
	return iv
}

// Empty reports whether no value can satisfy the predicate: both sides bounded
// with lo above hi, or meeting at a point at least one side excludes.
func (iv Interval) Empty() bool {
	if iv.Lo.Unbounded || iv.Hi.Unbounded {
		return false
	}
	if iv.Lo.Value > iv.Hi.Value {
		return true
	}
	return iv.Lo.Value == iv.Hi.Value && (iv.Lo.Open || iv.Hi.Open)
}

// Bounded reports whether both endpoints are present (a MER-shaped predicate).
func (iv Interval) Bounded() bool { return !iv.Lo.Unbounded && !iv.Hi.Unbounded }

// String renders the interval in the query grammar (see Grammar): half-bounded
// intervals as comparison operators, bounded ones in bracket notation.
func (iv Interval) String() string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch {
	case iv.Lo.Unbounded && iv.Hi.Unbounded:
		return "*"
	case iv.Hi.Unbounded:
		if iv.Lo.Open {
			return "> " + num(iv.Lo.Value)
		}
		return ">= " + num(iv.Lo.Value)
	case iv.Lo.Unbounded:
		if iv.Hi.Open {
			return "< " + num(iv.Hi.Value)
		}
		return "<= " + num(iv.Hi.Value)
	}
	open, close := "[", "]"
	if iv.Lo.Open {
		open = "("
	}
	if iv.Hi.Open {
		close = ")"
	}
	return fmt.Sprintf("%s%s, %s%s", open, num(iv.Lo.Value), num(iv.Hi.Value), close)
}

// Grammar describes the forms Parse accepts, for CLI help and error messages.
func Grammar() string {
	return "* | > τ | >= τ | < τ | <= τ | [lo, hi] | (lo, hi] | [lo, hi) | (lo, hi)"
}

// parseBound reads one finite endpoint.  strconv.ParseFloat happily accepts
// "NaN" and "±Inf", but neither is a usable endpoint: a NaN bound makes
// Contains vacuously false or inconsistent under comparison, and an infinite
// bound silently means "unbounded" while claiming to be a value — the grammar
// spells that "*" or a half-bounded comparison instead.  Rejecting them here
// keeps every Interval that Parse returns finite by construction.
func parseBound(field, s, input string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("interval: bad %s in %q: %v", field, input, err)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("interval: %s in %q is NaN; endpoints must be finite", field, input)
	}
	if math.IsInf(v, 0) {
		return 0, fmt.Errorf("interval: %s in %q is infinite; use %q or a half-bounded form for an absent endpoint", field, input, "*")
	}
	return v, nil
}

// Parse reads an interval in the grammar String emits.  Comparison forms take
// the operator and the threshold ("> 0.9", ">=0.9"); bracket forms take two
// comma-separated bounds with (/[ and )/] selecting openness.  Endpoints must
// be finite: NaN and ±Inf are rejected with explicit errors.
func Parse(s string) (Interval, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return All(), nil
	}
	for _, op := range []string{">=", "<=", ">", "<"} {
		if strings.HasPrefix(s, op) {
			v, err := parseBound("threshold", strings.TrimSpace(s[len(op):]), s)
			if err != nil {
				return Interval{}, err
			}
			switch op {
			case ">":
				return GreaterThan(v), nil
			case ">=":
				return AtLeast(v), nil
			case "<":
				return LessThan(v), nil
			default:
				return AtMost(v), nil
			}
		}
	}
	if len(s) >= 2 && (s[0] == '[' || s[0] == '(') && (s[len(s)-1] == ']' || s[len(s)-1] == ')') {
		parts := strings.Split(s[1:len(s)-1], ",")
		if len(parts) != 2 {
			return Interval{}, fmt.Errorf("interval: %q needs two comma-separated bounds", s)
		}
		lo, err := parseBound("lower bound", strings.TrimSpace(parts[0]), s)
		if err != nil {
			return Interval{}, err
		}
		hi, err := parseBound("upper bound", strings.TrimSpace(parts[1]), s)
		if err != nil {
			return Interval{}, err
		}
		iv := Between(lo, hi)
		iv.Lo.Open = s[0] == '('
		iv.Hi.Open = s[len(s)-1] == ')'
		return iv, nil
	}
	return Interval{}, fmt.Errorf("interval: cannot parse %q (grammar: %s)", s, Grammar())
}
