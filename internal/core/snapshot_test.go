package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 31})

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}

	restored, err := BuildFromSnapshot(e.Data(), bytes.NewReader(buf.Bytes()), Config{Clusters: 4})
	if err != nil {
		t.Fatalf("BuildFromSnapshot: %v", err)
	}
	if restored.Info().NumRelationships != e.Info().NumRelationships {
		t.Fatalf("relationships %d != %d", restored.Info().NumRelationships, e.Info().NumRelationships)
	}
	if restored.Info().NumPivots != e.Info().NumPivots {
		t.Fatalf("pivots %d != %d", restored.Info().NumPivots, e.Info().NumPivots)
	}
	if !restored.Info().IndexBuilt {
		t.Fatal("index should be rebuilt from the snapshot")
	}

	// Every affine estimate must be identical to the original engine's.
	for _, pair := range e.Data().AllPairs() {
		for _, m := range []measure.Measure{measure.Covariance, measure.Correlation, measure.DotProduct} {
			want, errWant := referenceValue(e.escapedState(), m, pair, MethodAffine)
			got, errGot := referenceValue(restored.escapedState(), m, pair, MethodAffine)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("pair %v %v: error mismatch %v vs %v", pair, m, errWant, errGot)
			}
			if errWant == nil && math.Abs(want-got) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("pair %v %v: %v != %v", pair, m, got, want)
			}
		}
	}

	// Index queries give the same results.
	orig, err := e.Interval(measure.Correlation, interval.GreaterThan(0.9), MethodIndex)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := restored.Interval(measure.Correlation, interval.GreaterThan(0.9), MethodIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairSet(orig.Pairs, loaded.Pairs) {
		t.Fatal("index results differ after snapshot round trip")
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 32})
	var a, b bytes.Buffer
	if err := e.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of the same engine should be byte-identical")
	}
}

func TestSnapshotSkipIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 33})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := BuildFromSnapshot(e.Data(), &buf, Config{SkipIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if restored.escapedState().index != nil {
		t.Fatal("SkipIndex should leave the index unbuilt")
	}
	if _, err := restored.Interval(measure.Covariance, interval.GreaterThan(0), MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index query err = %v", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 34})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Wrong dataset shape.
	other, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 10, NumSamples: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromSnapshot(other, bytes.NewReader(raw), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("shape mismatch err = %v", err)
	}

	// Corrupted magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(bad), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic err = %v", err)
	}

	// Truncated payload.
	if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(raw[:len(raw)/2]), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncation err = %v", err)
	}

	// Empty reader.
	if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(nil), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("empty snapshot err = %v", err)
	}

	// Invalid dataset.
	if _, err := BuildFromSnapshot(&timeseries.DataMatrix{}, bytes.NewReader(raw), Config{}); err == nil {
		t.Fatal("invalid dataset should error")
	}

	// Records WriteSnapshot never writes: a flag byte that disagrees with the
	// pivot (or is not 0 or 1), two records out of canonical pair order, and
	// a record repeated.
	k, n, m := e.Relationships().Clustering.K(), e.Data().NumSeries(), e.Data().NumSamples()
	first := 20 + 8*k*m + 4*n + 4
	record := func(i int) []byte { return raw[first+i*recordSize : first+(i+1)*recordSize] }
	for _, flag := range []byte{1 - raw[first+16], 2} {
		bad = append([]byte(nil), raw...)
		bad[first+16] = flag
		if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(bad), Config{}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flag byte %d err = %v", flag, err)
		}
	}
	swapped := append(append(append([]byte(nil), raw[:first]...), record(1)...), record(0)...)
	swapped = append(swapped, raw[first+2*recordSize:]...)
	if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(swapped), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("records out of order err = %v", err)
	}
	repeated := append(append(append([]byte(nil), raw[:first]...), record(0)...), record(0)...)
	repeated = append(repeated, raw[first+2*recordSize:]...)
	if _, err := BuildFromSnapshot(e.Data(), bytes.NewReader(repeated), Config{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("repeated record err = %v", err)
	}
}

// TestBuildInfoNumPairsIsQueryUniverse pins Info().NumPairs on every build
// path: it is the number of pairs the engine answers queries over — all of
// them by default, the assigned ones under AssignedPairsOnly — whether the
// engine was built cold, from relationships, or from a snapshot.
func TestBuildInfoNumPairsIsQueryUniverse(t *testing.T) {
	plain := buildTestEngine(t, Config{Clusters: 4, Seed: 35})
	if got, want := plain.Info().NumPairs, plain.Data().NumPairs(); got != want {
		t.Fatalf("default build: NumPairs = %d, want every pair (%d)", got, want)
	}

	const budget = 100
	cfg := Config{Clusters: 4, Seed: 35, AssignedPairsOnly: true}
	e := buildLimited(t, plain.Data(), cfg, budget)
	if got := e.Info().NumPairs; got != budget || got >= e.Data().NumPairs() {
		t.Fatalf("restricted build: NumPairs = %d, want the %d assigned pairs (of %d)", got, budget, e.Data().NumPairs())
	}
	fromRel, err := BuildFromRelationships(e.Data(), cfg, e.Relationships())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := BuildFromSnapshot(e.Data(), &buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for path, other := range map[string]*Engine{"BuildFromRelationships": fromRel, "BuildFromSnapshot": fromSnapshot} {
		if got := other.Info().NumPairs; got != budget {
			t.Fatalf("%s: NumPairs = %d, want %d", path, got, budget)
		}
	}
}
