package timeseries

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"affinity/internal/measure"
)

func sample3x4() *DataMatrix {
	d, err := NewNamedDataMatrix(
		[]string{"a", "b", "c"},
		[][]float64{
			{1, 2, 3, 4},
			{2, 4, 6, 8},
			{5, 5, 5, 5},
		})
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewDataMatrixBasics(t *testing.T) {
	d := sample3x4()
	if d.NumSeries() != 3 {
		t.Fatalf("NumSeries = %d", d.NumSeries())
	}
	if d.NumSamples() != 4 {
		t.Fatalf("NumSamples = %d", d.NumSamples())
	}
	if d.Name(1) != "b" {
		t.Fatalf("Name(1) = %q", d.Name(1))
	}
	if d.Name(99) != "" {
		t.Fatalf("Name of invalid id should be empty")
	}
	s, err := d.Series(2)
	if err != nil {
		t.Fatalf("Series: %v", err)
	}
	if s[0] != 5 {
		t.Fatalf("Series(2)[0] = %v", s[0])
	}
	if _, err := d.Series(-1); !errors.Is(err, ErrInvalidSeries) {
		t.Fatalf("Series(-1) error = %v", err)
	}
	if _, err := d.Series(3); !errors.Is(err, ErrInvalidSeries) {
		t.Fatalf("Series(3) error = %v", err)
	}
}

func TestAppendShapeErrors(t *testing.T) {
	d := &DataMatrix{}
	if err := d.Append("x", nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("empty first series error = %v", err)
	}
	if err := d.Append("x", []float64{1, 2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Append("y", []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("mismatched length error = %v", err)
	}
}

func TestNewNamedDataMatrixMismatch(t *testing.T) {
	_, err := NewNamedDataMatrix([]string{"a"}, [][]float64{{1}, {2}})
	if !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("error = %v", err)
	}
}

func TestSeriesCopyIsolation(t *testing.T) {
	d := sample3x4()
	c, err := d.SeriesCopy(0)
	if err != nil {
		t.Fatalf("SeriesCopy: %v", err)
	}
	c[0] = 100
	s, _ := d.Series(0)
	if s[0] != 1 {
		t.Fatal("SeriesCopy must not share storage")
	}
}

func TestAppendCopiesInput(t *testing.T) {
	src := []float64{1, 2, 3}
	d := &DataMatrix{}
	if err := d.Append("x", src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	s, _ := d.Series(0)
	if s[0] != 1 {
		t.Fatal("Append must copy the input slice")
	}
}

func TestPairs(t *testing.T) {
	p, err := NewPair(3, 1)
	if err != nil {
		t.Fatalf("NewPair: %v", err)
	}
	if p.U != 1 || p.V != 3 {
		t.Fatalf("NewPair should canonicalize: %v", p)
	}
	if _, err := NewPair(2, 2); !errors.Is(err, ErrInvalidPair) {
		t.Fatalf("identical ids error = %v", err)
	}
	if !p.Valid() {
		t.Fatal("canonical pair should be valid")
	}
	if (Pair{U: 2, V: 1}).Valid() {
		t.Fatal("non-canonical pair should be invalid")
	}
	if !p.Contains(3) || p.Contains(0) {
		t.Fatal("Contains is wrong")
	}
	o, err := p.Other(1)
	if err != nil || o != 3 {
		t.Fatalf("Other(1) = %v, %v", o, err)
	}
	if _, err := p.Other(9); !errors.Is(err, ErrInvalidPair) {
		t.Fatalf("Other(9) error = %v", err)
	}
	if p.String() != "(1,3)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestAllPairs(t *testing.T) {
	d := sample3x4()
	pairs := d.AllPairs()
	if len(pairs) != 3 || d.NumPairs() != 3 {
		t.Fatalf("n=3 should have 3 pairs, got %d", len(pairs))
	}
	want := []Pair{{0, 1}, {0, 2}, {1, 2}}
	for i, p := range pairs {
		if p != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, p, want[i])
		}
	}
}

// TestPairsAtMatchesAllPairs: walking the pair set through PairsAt gives the
// AllPairs list from every starting rank — so at every boundary any chunking
// can produce — for the degenerate sizes and the benchmark's n.
func TestPairsAtMatchesAllPairs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 168} {
		series := make([][]float64, n)
		for i := range series {
			series[i] = []float64{float64(i)}
		}
		d, err := NewDataMatrix(series)
		if err != nil {
			t.Fatal(err)
		}
		want := d.AllPairs()
		for rank, p := range want {
			if got := PairRank(n, p); got != rank {
				t.Fatalf("n=%d: PairRank(%v) = %d, AllPairs has it at %d", n, p, got, rank)
			}
		}
		if got := d.PairsAt(0, nil); len(got) != 0 {
			t.Fatalf("n=%d: PairsAt into an empty buffer returned %d pairs", n, len(got))
		}
		check := func(lo, size int) {
			t.Helper()
			hi := min(lo+size, len(want))
			for i, p := range d.PairsAt(lo, make([]Pair, hi-lo)) {
				if p != want[lo+i] {
					t.Fatalf("n=%d: PairsAt(%d, %d)[%d] = %v, AllPairs has %v", n, lo, hi-lo, i, p, want[lo+i])
				}
			}
		}
		check(0, len(want))
		for _, size := range []int{1, 2, 7, 256} {
			for lo := range want {
				check(lo, size)
			}
		}
	}
}

func TestPairMatrixAndColumnsMatrix(t *testing.T) {
	d := sample3x4()
	pm, err := d.PairMatrix(Pair{U: 0, V: 1})
	if err != nil {
		t.Fatalf("PairMatrix: %v", err)
	}
	if r, c := pm.Dims(); r != 4 || c != 2 {
		t.Fatalf("PairMatrix dims (%d,%d)", r, c)
	}
	if pm.At(3, 1) != 8 {
		t.Fatalf("PairMatrix[3,1] = %v", pm.At(3, 1))
	}
	if _, err := d.PairMatrix(Pair{U: 1, V: 1}); err == nil {
		t.Fatal("invalid pair should error")
	}
	if _, err := d.PairMatrix(Pair{U: 0, V: 9}); err == nil {
		t.Fatal("out-of-range pair should error")
	}

	cm, err := d.ColumnsMatrix(0, []float64{9, 9, 9, 9})
	if err != nil {
		t.Fatalf("ColumnsMatrix: %v", err)
	}
	if cm.At(0, 1) != 9 {
		t.Fatalf("ColumnsMatrix[0,1] = %v", cm.At(0, 1))
	}
	if _, err := d.ColumnsMatrix(0, []float64{9}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short external column error = %v", err)
	}
	if _, err := d.ColumnsMatrix(42, []float64{9, 9, 9, 9}); !errors.Is(err, ErrInvalidSeries) {
		t.Fatalf("invalid series error = %v", err)
	}
}

func TestWindow(t *testing.T) {
	d := sample3x4()
	w, err := d.Window(1, 3)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if w.NumSamples() != 2 {
		t.Fatalf("window samples = %d", w.NumSamples())
	}
	s, _ := w.Series(0)
	if s[0] != 2 || s[1] != 3 {
		t.Fatalf("window series = %v", s)
	}
	if _, err := d.Window(2, 2); err == nil {
		t.Fatal("empty window should error")
	}
	if _, err := d.Window(-1, 2); err == nil {
		t.Fatal("negative start should error")
	}
	if _, err := d.Window(0, 9); err == nil {
		t.Fatal("end beyond m should error")
	}
}

func TestMatrixAndIDs(t *testing.T) {
	d := sample3x4()
	m, err := d.Matrix()
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if r, c := m.Dims(); r != 4 || c != 3 {
		t.Fatalf("Matrix dims (%d,%d)", r, c)
	}
	ids := d.IDs()
	if len(ids) != 3 || ids[2] != 2 {
		t.Fatalf("IDs = %v", ids)
	}
	empty := &DataMatrix{}
	em, err := empty.Matrix()
	if err != nil {
		t.Fatalf("empty Matrix: %v", err)
	}
	if r, c := em.Dims(); r != 0 || c != 0 {
		t.Fatalf("empty Matrix dims (%d,%d)", r, c)
	}
}

func TestCloneAndValidate(t *testing.T) {
	d := sample3x4()
	c := d.Clone()
	s, _ := c.Series(0)
	s[0] = 42 // mutating the clone's internal storage
	orig, _ := d.Series(0)
	if orig[0] != 1 {
		t.Fatal("Clone must deep-copy series")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	empty := &DataMatrix{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty matrix should fail validation")
	}

	bad, _ := NewDataMatrix([][]float64{{1, math.NaN()}})
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN should fail validation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample3x4()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumSeries() != 3 || back.NumSamples() != 4 {
		t.Fatalf("round trip shape %dx%d", back.NumSamples(), back.NumSeries())
	}
	if back.Name(1) != "b" {
		t.Fatalf("round trip name = %q", back.Name(1))
	}
	s, _ := back.Series(1)
	if s[3] != 8 {
		t.Fatalf("round trip value = %v", s[3])
	}
}

func TestReadCSVHeaderless(t *testing.T) {
	in := "1,10\n2,20\n3,30\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.NumSeries() != 2 || d.NumSamples() != 3 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumSeries())
	}
	if d.Name(0) != "series-0" {
		t.Fatalf("default name = %q", d.Name(0))
	}
}

func TestReadCSVQuotedNamesAndBlankLines(t *testing.T) {
	in := "\"price, usd\",other\n\n1,2\n3,4\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.Name(0) != "price, usd" {
		t.Fatalf("quoted name = %q", d.Name(0))
	}
	if d.NumSamples() != 2 {
		t.Fatalf("samples = %d", d.NumSamples())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged row should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,x\n")); err == nil {
		t.Fatal("non-numeric field should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("header-only input should error")
	}
}

func TestCSVEscaping(t *testing.T) {
	d, _ := NewNamedDataMatrix([]string{`weird"name`, "pla,in"}, [][]float64{{1, 2}, {3, 4}})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Name(0) != `weird"name` || back.Name(1) != "pla,in" {
		t.Fatalf("names = %q, %q", back.Name(0), back.Name(1))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d := sample3x4()
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if back.NumSeries() != d.NumSeries() || back.NumSamples() != d.NumSamples() {
		t.Fatal("binary round trip shape mismatch")
	}
	for i := 0; i < d.NumSeries(); i++ {
		a, _ := d.Series(SeriesID(i))
		b, _ := back.Series(SeriesID(i))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("series %d sample %d: %v != %v", i, j, a[j], b[j])
			}
		}
		if back.Name(SeriesID(i)) != d.Name(SeriesID(i)) {
			t.Fatalf("name %d mismatch", i)
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	d := sample3x4()
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic should error")
	}

	// Truncated payload.
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated input should error")
	}

	// Bad version.
	bad = append([]byte(nil), raw...)
	bad[4] = 0xee
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version should error")
	}

	// Empty input.
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
}

// TestAppendSamplesAndSlideWindow: successive slides append each batch at
// the right edge and evict as many samples at the left, and the start index
// accumulates across them.
func TestAppendSamplesAndSlideWindow(t *testing.T) {
	d := sample3x4()
	if d.StartIndex() != 0 {
		t.Fatalf("fresh StartIndex = %d", d.StartIndex())
	}
	next, err := d.SlideCopy([][]float64{{10, 11}, {20, 22}, {5, 5}})
	if err != nil {
		t.Fatalf("SlideCopy: %v", err)
	}
	next, err = next.SlideCopy([][]float64{{12}, {24}, {5}})
	if err != nil {
		t.Fatalf("second SlideCopy: %v", err)
	}
	if next.NumSamples() != 4 || next.StartIndex() != 3 {
		t.Fatalf("after two slides: m=%d start=%d", next.NumSamples(), next.StartIndex())
	}
	s, _ := next.Series(0)
	want := []float64{4, 10, 11, 12}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series 0 after two slides = %v, want %v", s, want)
		}
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("Validate after slides: %v", err)
	}
}

// TestAppendSamplesErrors: a slide's batch must hold one equally long,
// finite column per series; a rejected batch leaves the receiver unchanged.
func TestAppendSamplesErrors(t *testing.T) {
	d := sample3x4()
	if _, err := d.SlideCopy([][]float64{{1}, {2}}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("wrong batch width error = %v", err)
	}
	if _, err := d.SlideCopy([][]float64{{1}, {2, 3}, {4}}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("ragged batch error = %v", err)
	}
	if _, err := d.SlideCopy([][]float64{{1}, {math.NaN()}, {4}}); err == nil {
		t.Fatal("NaN batch should be rejected")
	}
	if d.NumSamples() != 4 || d.StartIndex() != 0 {
		t.Fatalf("receiver after failed slides: m=%d start=%d", d.NumSamples(), d.StartIndex())
	}
}

// TestSlideWindowErrors: an empty matrix cannot slide, and an empty batch
// slides by nothing — the copy holds the same samples at the same start.
func TestSlideWindowErrors(t *testing.T) {
	if _, err := (&DataMatrix{}).SlideCopy(nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("sliding an empty matrix error = %v", err)
	}
	d := sample3x4()
	same, err := d.SlideCopy([][]float64{{}, {}, {}})
	if err != nil {
		t.Fatalf("empty batch should slide by nothing, got %v", err)
	}
	if same.NumSamples() != 4 || same.StartIndex() != 0 {
		t.Fatalf("empty slide: m=%d start=%d", same.NumSamples(), same.StartIndex())
	}
	for _, id := range d.IDs() {
		got, _ := same.Series(id)
		want, _ := d.Series(id)
		if !slices.Equal(got, want) {
			t.Fatalf("series %d after an empty slide = %v, want %v", id, got, want)
		}
	}
}

func TestSlideCopy(t *testing.T) {
	d := sample3x4()
	next, err := d.SlideCopy([][]float64{{10, 11}, {20, 22}, {6, 7}})
	if err != nil {
		t.Fatalf("SlideCopy: %v", err)
	}
	// Receiver unchanged (copy-on-write).
	if d.NumSamples() != 4 || d.StartIndex() != 0 {
		t.Fatalf("receiver modified: m=%d start=%d", d.NumSamples(), d.StartIndex())
	}
	old, _ := d.Series(0)
	if old[0] != 1 {
		t.Fatalf("receiver samples modified: %v", old)
	}
	if next.NumSamples() != 4 || next.StartIndex() != 2 {
		t.Fatalf("next window: m=%d start=%d", next.NumSamples(), next.StartIndex())
	}
	s, _ := next.Series(0)
	want := []float64{3, 4, 10, 11}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("next series 0 = %v, want %v", s, want)
		}
	}
	if next.Name(2) != "c" {
		t.Fatalf("names not preserved: %q", next.Name(2))
	}
}

func TestSlideCopyBatchLongerThanWindow(t *testing.T) {
	d := sample3x4()
	batch := [][]float64{
		{10, 11, 12, 13, 14, 15},
		{20, 21, 22, 23, 24, 25},
		{30, 31, 32, 33, 34, 35},
	}
	next, err := d.SlideCopy(batch)
	if err != nil {
		t.Fatalf("SlideCopy: %v", err)
	}
	if next.NumSamples() != 4 || next.StartIndex() != 6 {
		t.Fatalf("next window: m=%d start=%d", next.NumSamples(), next.StartIndex())
	}
	s, _ := next.Series(1)
	want := []float64{22, 23, 24, 25}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("next series 1 = %v, want %v", s, want)
		}
	}
}

func TestWindowAndCloneTrackStartIndex(t *testing.T) {
	d, err := sample3x4().SlideCopy([][]float64{{5}, {10}, {5}})
	if err != nil {
		t.Fatalf("SlideCopy: %v", err)
	}
	c := d.Clone()
	if c.StartIndex() != 1 {
		t.Fatalf("Clone StartIndex = %d", c.StartIndex())
	}
	w, err := d.Window(1, 3)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if w.StartIndex() != 2 {
		t.Fatalf("Window StartIndex = %d", w.StartIndex())
	}
}

// poison writes a NaN into a matrix behind its back — through the slice Series
// hands out, which callers must not write to — so a test can tell whether a
// Validate call scanned the samples or trusted the mark.
func poison(t *testing.T, d *DataMatrix) {
	t.Helper()
	s, err := d.Series(1)
	if err != nil {
		t.Fatal(err)
	}
	s[len(s)-1] = math.NaN()
}

// TestValidateMark: a matrix remembers a successful Validate, SlideCopy hands
// the mark on from a validated parent only, and every mutating method clears
// it, so a changed matrix is scanned again.
func TestValidateMark(t *testing.T) {
	batch := [][]float64{{10}, {20}, {6}}

	// Never validated: Validate scans, and so does it on the slid copy.
	d := sample3x4()
	next, err := d.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	poison(t, next)
	if err := next.Validate(); err == nil {
		t.Fatal("a copy slid from an unvalidated window was not scanned")
	}
	poison(t, d)
	if err := d.Validate(); err == nil {
		t.Fatal("an unvalidated window was not scanned")
	}

	// Validated: the mark holds for the window and for what is slid from it,
	// copy after copy.
	d = sample3x4()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	next, err = d.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	if next, err = next.SlideCopy(batch); err != nil {
		t.Fatal(err)
	}
	poison(t, next)
	if err := next.Validate(); err != nil {
		t.Fatalf("a copy slid from a validated window was scanned again: %v", err)
	}
	// A failed Validate leaves no mark behind.
	bad, _ := NewDataMatrix([][]float64{{1, math.Inf(1)}})
	for range 2 {
		if err := bad.Validate(); err == nil {
			t.Fatal("Inf passed validation")
		}
	}
	// A non-finite batch is rejected whatever the mark says.
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := d.SlideCopy([][]float64{{10}, {v}, {6}}); err == nil {
			t.Fatalf("SlideCopy accepted a batch holding %v", v)
		}
	}

	// Append clears the mark: the poisoned matrix is found out
	// on the next Validate.
	mutators := map[string]func(d *DataMatrix) error{
		"Append": func(d *DataMatrix) error { return d.Append("z", []float64{1, 2, 3, 4}) },
	}
	for name, mutate := range mutators {
		d := sample3x4()
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		poison(t, d)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: a validated matrix was scanned again: %v", name, err)
		}
		if err := mutate(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err == nil {
			t.Fatalf("%s left the validation mark standing", name)
		}
	}
	// A clone starts unmarked.
	c := sample3x4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	poison(t, c)
	if err := c.Clone().Validate(); err == nil {
		t.Fatal("a clone inherited the validation mark")
	}
}

// The window's moments are the one reduction of its columns every layer above
// reads.  These tests hold every field to the scalar primitive it stands in
// for, bit for bit, and the memo to the window it was reduced from.

// requireMomentsParity checks d.Moments() against SumOf / MeanOf / VarianceOf /
// DotProductOf(x, x) of every series.
func requireMomentsParity(t testing.TB, d *DataMatrix, label string) {
	t.Helper()
	mo := d.Moments()
	if d.Moments() != mo {
		t.Fatalf("%s: two Moments calls returned two objects", label)
	}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	for _, id := range d.IDs() {
		x, _ := d.Series(id)
		mean, _ := measure.MeanOf(x)
		variance, _ := measure.VarianceOf(x)
		sqNorm, _ := measure.DotProductOf(x, x)
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Sum", mo.Sum[id], measure.SumOf(x)},
			{"Mean", mo.Mean[id], mean},
			{"Variance", mo.Variance[id], variance},
			{"SqNorm", mo.SqNorm[id], sqNorm},
		} {
			if !same(f.got, f.want) {
				t.Fatalf("%s series %d: %s = %v (bits %x), the scalar primitive gives %v (bits %x)\n%v",
					label, id, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want), x)
			}
		}
		if st := mo.Stat(id); !same(st.Variance, variance) || !same(st.SqNorm, sqNorm) {
			t.Fatalf("%s series %d: Stat = %+v", label, id, st)
		}
	}
}

// momentsWindow draws an n × m window, column v from flavour+v of sampleSource.
func momentsWindow(t testing.TB, seed int64, n, m int, flavour uint8) *DataMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, n)
	for v := range cols {
		next := sampleSource(flavour+uint8(v), rng)
		cols[v] = make([]float64, m)
		for i := range cols[v] {
			cols[v][i] = next()
		}
	}
	d, err := NewDataMatrix(cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWindowMomentsParity(t *testing.T) {
	for flavour := uint8(0); flavour < 6; flavour++ {
		for _, n := range []int{1, 2, 5} {
			for _, m := range []int{1, 2, 3, 7, 137, 360} {
				d := momentsWindow(t, int64(flavour)*31+int64(m), n, m, flavour)
				requireMomentsParity(t, d, fmt.Sprintf("flavour %d, %d×%d", flavour, n, m))
			}
		}
	}
	negZero := math.Copysign(0, -1)
	hostile := map[string][]float64{
		"constant":         {2.5, 2.5, 2.5, 2.5, 2.5},
		"near-constant":    {1e8, 1e8 + 1e-7, 1e8 - 1e-7, 1e8, 1e8 + 2e-7},
		"cancelling":       {1e16, 1, -1e16, 1, 3},
		"huge":             {1e150, -1e150, 1e150, 3e150, -2e150},
		"squares overflow": {1e160, 1e160, -1e160, 1e160, 1e160},
		"tiny":             {1e-150, -1e-150, 3e-150, 1e-160, 0},
		"denormal":         {5e-324, -5e-324, 1e-310, 2e-310, -1e-310},
		"negative zeros":   {negZero, negZero, negZero, negZero, negZero},
		"both zeros":       {0, negZero, 0, negZero, 0},
	}
	for name, col := range hostile {
		for _, m := range []int{1, 2, len(col)} {
			for _, n := range []int{1, 2} {
				cols := make([][]float64, n)
				for v := range cols {
					cols[v] = col[:m]
				}
				d, err := NewDataMatrix(cols)
				if err != nil {
					t.Fatal(err)
				}
				requireMomentsParity(t, d, fmt.Sprintf("%s, %d×%d", name, n, m))
			}
		}
	}
	if mo := (&DataMatrix{}).Moments(); len(mo.Sum)+len(mo.Mean)+len(mo.Variance)+len(mo.SqNorm) != 0 {
		t.Fatalf("an empty matrix has moments %+v", mo)
	}
}

func FuzzWindowMomentsParity(f *testing.F) {
	for flavour := uint8(0); flavour < 6; flavour++ {
		f.Add(int64(flavour)+1, uint8(9+flavour), uint8(3), flavour)
	}
	f.Add(int64(7), uint8(0), uint8(0), uint8(3)) // 1 × 1
	f.Add(int64(8), uint8(1), uint8(1), uint8(4)) // 2 × 2
	f.Fuzz(func(t *testing.T, seed int64, m, n, flavour uint8) {
		d := momentsWindow(t, seed, 1+int(n)%4, 1+int(m)%96, flavour)
		requireMomentsParity(t, d, "built")
		// A slid window reduces fresh: its memo is its own and holds to the
		// primitives over its own samples.
		batch := make([][]float64, d.NumSeries())
		for v := range batch {
			s, _ := d.Series(SeriesID(v))
			batch[v] = []float64{s[0] * 0.5, 1 + float64(v)}
		}
		next, err := d.SlideCopy(batch)
		if err != nil {
			t.Fatal(err)
		}
		requireMomentsParity(t, next, "slid")
	})
}

// TestMomentsLifecycle: the memo is built on first use, dropped by Append,
// and never handed to another window — SlideCopy, Clone and Window results
// reduce their own samples.
func TestMomentsLifecycle(t *testing.T) {
	batch := [][]float64{{10}, {20}, {6}}
	mutators := map[string]func(d *DataMatrix) error{
		"Append": func(d *DataMatrix) error { return d.Append("z", make([]float64, d.NumSamples())) },
	}
	for name, mutate := range mutators {
		d := sample3x4()
		before := d.Moments()
		if err := mutate(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Moments() == before {
			t.Fatalf("%s kept the moments of the window it changed", name)
		}
		requireMomentsParity(t, d, name)
	}

	d := sample3x4()
	memo := d.Moments()
	derived := map[string]func() (*DataMatrix, error){
		"SlideCopy": func() (*DataMatrix, error) { return d.SlideCopy(batch) },
		"Clone":     func() (*DataMatrix, error) { return d.Clone(), nil },
		"Window":    func() (*DataMatrix, error) { return d.Window(1, 3) },
	}
	for name, derive := range derived {
		x, err := derive()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.moments.Load() != nil {
			t.Fatalf("%s handed on a memo", name)
		}
		requireMomentsParity(t, x, name)
	}
	if d.Moments() != memo {
		t.Fatal("deriving another window dropped the receiver's memo")
	}
}

// TestMomentsConcurrentFirstCallers: goroutines racing for a window's first
// Moments call all get the one object (run under -race).
func TestMomentsConcurrentFirstCallers(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := momentsWindow(t, int64(round), 8, 64, 5)
		got := make([]*Moments, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = d.Moments()
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != got[0] {
				t.Fatalf("round %d: goroutine %d got its own moments", round, g)
			}
		}
		requireMomentsParity(t, d, "concurrent")
	}
}

// TestMomentsReadersRaceSlides: readers of a window's memoised moments (no
// lock once memoised) and of its sorted columns (the read lock) run beside
// slides that take the sorted columns away and readers that build them again;
// every reader sees the one moments object and the bits of a fresh sort
// (run under -race).
func TestMomentsReadersRaceSlides(t *testing.T) {
	d := momentsWindow(t, 7, 6, 48, 5)
	memo := d.Moments()
	medians := make([]float64, d.NumSeries())
	for v := range medians {
		s, _ := d.Series(SeriesID(v))
		sorted := slices.Clone(s)
		measure.SortSamples(sorted)
		medians[v] = sorted[len(sorted)/2]
	}
	batch := make([][]float64, d.NumSeries())
	for v := range batch {
		batch[v] = []float64{float64(v)}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				v := SeriesID((g + i) % d.NumSeries())
				switch g {
				case 0:
					if _, err := d.SlideCopy(batch); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if d.Moments() != memo {
						t.Error("a reader got another moments object")
						return
					}
				default:
					got, err := d.EvalSorted(v, func(s []float64) (float64, error) { return s[len(s)/2], nil })
					if err != nil || math.Float64bits(got) != math.Float64bits(medians[v]) {
						t.Errorf("series %d: sorted middle %v (%v), want %v", v, got, err, medians[v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	requireMomentsParity(t, d, "raced")
}

// BenchmarkWindowMoments is the per-epoch cost of the one reduction, beside
// what the four scalar primitives cost a consumer that made its own.
func BenchmarkWindowMoments(b *testing.B) {
	for _, shape := range [][2]int{{168, 360}, {128, 720}, {670, 720}} {
		d := momentsWindow(b, 1, shape[0], shape[1], 5)
		b.Run(fmt.Sprintf("%dx%d/memo", shape[0], shape[1]), func(b *testing.B) {
			for b.Loop() {
				NewMoments(d.series)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/primitives", shape[0], shape[1]), func(b *testing.B) {
			var sink float64
			for b.Loop() {
				for _, x := range d.series {
					mean, _ := measure.MeanOf(x)
					variance, _ := measure.VarianceOf(x)
					sqNorm, _ := measure.DotProductOf(x, x)
					sink += measure.SumOf(x) + mean + variance + sqNorm
				}
			}
			_ = sink
		})
	}
}

// Readers asking for every series' median or mode in one Locations call race
// slides that take the window's sorted columns away from it: each list is
// answered from one consistent set of columns, the bits EvalLocation gives
// the raw series.  Run with -race.
func TestLocationsReadersRaceSlides(t *testing.T) {
	d := momentsWindow(t, 11, 9, 40, 5)
	ids := d.IDs()
	want := map[measure.Measure][]float64{}
	for _, m := range []measure.Measure{measure.Median, measure.Mode} {
		sp := measure.Lookup(m)
		for _, id := range ids {
			s, _ := d.Series(id)
			v, err := sp.EvalLocation(s)
			if err != nil {
				t.Fatal(err)
			}
			want[m] = append(want[m], v)
		}
	}
	batch := make([][]float64, d.NumSeries())
	for v := range batch {
		batch[v] = []float64{float64(v) / 3}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(ids))
			for i := range 200 {
				if g == 0 {
					if _, err := d.SlideCopy(batch); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				m := []measure.Measure{measure.Median, measure.Mode}[(g+i)%2]
				if err := d.Locations(m, ids, out); err != nil {
					t.Error(err)
					return
				}
				for v, x := range out {
					if math.Float64bits(x) != math.Float64bits(want[m][v]) {
						t.Errorf("%v of series %d: %v, want %v", m, v, x, want[m][v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
