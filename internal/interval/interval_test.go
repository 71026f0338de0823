package interval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestContains(t *testing.T) {
	cases := []struct {
		name string
		iv   Interval
		in   []float64
		out  []float64
	}{
		{"greater-than", GreaterThan(1), []float64{1.0000001, 5, math.Inf(1)}, []float64{1, 0.999, -3, math.NaN()}},
		{"at-least", AtLeast(1), []float64{1, 2}, []float64{0.999, math.NaN()}},
		{"less-than", LessThan(-0.5), []float64{-0.6, math.Inf(-1)}, []float64{-0.5, 0, math.NaN()}},
		{"at-most", AtMost(-0.5), []float64{-0.5, -1}, []float64{-0.499, math.NaN()}},
		{"between", Between(0, 1), []float64{0, 0.5, 1}, []float64{-0.1, 1.1, math.NaN()}},
		{"open-both", New(Open(0), Open(1)), []float64{0.5}, []float64{0, 1}},
		{"all", All(), []float64{math.Inf(-1), 0, math.Inf(1)}, []float64{math.NaN()}},
	}
	for _, tc := range cases {
		for _, v := range tc.in {
			if !tc.iv.Contains(v) {
				t.Errorf("%s: %v should contain %v", tc.name, tc.iv, v)
			}
		}
		for _, v := range tc.out {
			if tc.iv.Contains(v) {
				t.Errorf("%s: %v should not contain %v", tc.name, tc.iv, v)
			}
		}
	}
}

func TestEmpty(t *testing.T) {
	cases := []struct {
		iv    Interval
		empty bool
	}{
		{Between(1, 0), true},
		{Between(1, 1), false},
		{New(Open(1), Closed(1)), true},
		{New(Closed(1), Open(1)), true},
		{New(Open(1), Open(1)), true},
		{GreaterThan(math.Inf(1)), false}, // unbounded side keeps it formally non-empty
		{Between(0, 1), false},
		{All(), false},
	}
	for _, tc := range cases {
		if got := tc.iv.Empty(); got != tc.empty {
			t.Errorf("%v: Empty() = %v, want %v", tc.iv, got, tc.empty)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []struct {
		iv   Interval
		want string
	}{
		{GreaterThan(0.9), "> 0.9"},
		{AtLeast(-1), ">= -1"},
		{LessThan(2.5), "< 2.5"},
		{AtMost(0), "<= 0"},
		{Between(0, 1), "[0, 1]"},
		{New(Open(0), Closed(1)), "(0, 1]"},
		{New(Closed(0), Open(1)), "[0, 1)"},
		{New(Open(0), Open(1)), "(0, 1)"},
		{All(), "*"},
	}
	for _, tc := range cases {
		got := tc.iv.String()
		if got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		back, err := Parse(got)
		if err != nil {
			t.Errorf("Parse(%q): %v", got, err)
			continue
		}
		if back != tc.iv {
			t.Errorf("Parse(String()) = %+v, want %+v", back, tc.iv)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "0.9", "> x", "[1]", "[1, 2, 3]", "[a, 2]", "[1, b)", "{1, 2}"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestParseRejectsNonFinite(t *testing.T) {
	// strconv.ParseFloat accepts all of these spellings; Parse must not.
	cases := []string{
		"> NaN", ">= nan", "< NaN", "<= -NaN",
		"> Inf", ">= +Inf", "< -Inf", "<= Infinity",
		"[NaN, 1]", "[1, NaN)", "(NaN, NaN)",
		"[-Inf, Inf]", "[0, +Inf]", "(-Infinity, 0]",
	}
	for _, s := range cases {
		iv, err := Parse(s)
		if err == nil {
			t.Errorf("Parse(%q) = %v, expected non-finite endpoint error", s, iv)
		}
	}
}

func TestLimit(t *testing.T) {
	if got := Unbounded().Limit(-1); !math.IsInf(got, -1) {
		t.Errorf("unbounded lower limit = %v", got)
	}
	if got := Unbounded().Limit(1); !math.IsInf(got, 1) {
		t.Errorf("unbounded upper limit = %v", got)
	}
	if got := Closed(3).Limit(-1); got != 3 {
		t.Errorf("closed limit = %v", got)
	}
}

func TestBounded(t *testing.T) {
	if !Between(0, 1).Bounded() {
		t.Error("[0,1] should be bounded")
	}
	if GreaterThan(0).Bounded() || LessThan(0).Bounded() || All().Bounded() {
		t.Error("half/unbounded intervals must not report Bounded")
	}
}

// TestSpanMatchesContains checks the compiled form the compaction loops test
// against: for every interval spelling randBound draws — open, closed,
// unbounded, infinite and NaN endpoints — and every probe, including each
// endpoint's neighbours, lo <= v <= hi holds exactly where Contains(v) does.
func TestSpanMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bounds := func() Bound {
		if rng.Intn(8) == 0 {
			return Bound{Value: math.NaN(), Open: rng.Intn(2) == 0}
		}
		return randBound(rng)
	}
	probes := []float64{math.Inf(-1), -math.MaxFloat64, -1e300, -3, -0.5, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, 3, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	for i := 0; i < 2000; i++ {
		iv := Interval{Lo: bounds(), Hi: bounds()}
		vs := slices.Clone(probes)
		for _, b := range []Bound{iv.Lo, iv.Hi} {
			vs = append(vs, b.Value, math.Nextafter(b.Value, math.Inf(-1)), math.Nextafter(b.Value, math.Inf(1)))
		}
		lo, hi := iv.Span()
		for _, v := range vs {
			if got, want := lo <= v && v <= hi, iv.Contains(v); got != want {
				t.Fatalf("%+v: span [%v, %v] says %v for %v, Contains says %v", iv, lo, hi, got, v, want)
			}
		}
	}
}

// TestClassify pins the verdict table of Interval.Classify, including open
// endpoints, half-bounded predicates and degenerate ranges.
func TestClassify(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		iv     Interval
		lo, hi float64
		want   Class
	}{
		{Between(0, 1), 0.2, 0.8, DefiniteIn},
		{Between(0, 1), 0, 1, DefiniteIn}, // closed endpoints included
		{Between(0, 1), -0.5, -0.1, DefiniteOut},
		{Between(0, 1), 1.1, 2, DefiniteOut},
		{Between(0, 1), -0.1, 0.5, Ambiguous},
		{Between(0, 1), 0.5, 1.5, Ambiguous},
		{GreaterThan(0), 0, 0, DefiniteOut}, // open endpoint excluded
		{GreaterThan(0), 1e-9, 1, DefiniteIn},
		{AtLeast(0), 0, 0, DefiniteIn},
		{AtMost(0), 0.1, 0.2, DefiniteOut},
		{LessThan(0), -2, -1, DefiniteIn},
		{All(), -1e300, 1e300, DefiniteIn},
		{Between(0, 1), 2, 1, Ambiguous},     // inverted bound
		{Between(0, 1), nan, 0.5, Ambiguous}, // NaN bound
		{Between(0, 1), 0.5, nan, Ambiguous},
	}
	for i, tc := range cases {
		if got := tc.iv.Classify(tc.lo, tc.hi); got != tc.want {
			t.Fatalf("case %d: Classify(%v, %v, %v) = %v, want %v", i, tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}
