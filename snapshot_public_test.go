package affinity

import (
	"bytes"
	"math"
	"testing"
)

func TestPublicSnapshotRoundTrip(t *testing.T) {
	eng, data := buildPublicEngine(t)

	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := NewFromSnapshot(data, &buf, Options{})
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	if restored.Info().NumRelationships != eng.Info().NumRelationships {
		t.Fatal("relationship count changed across the snapshot")
	}
	p := Pair{U: 1, V: 7}
	want, got := pairValue(t, eng, Correlation, p, Affine), pairValue(t, restored, Correlation, p, Affine)
	if math.Abs(want-got) > 1e-12 {
		t.Fatalf("restored estimate %v != %v", got, want)
	}
	orig, err := eng.Interval(Correlation, GreaterThan(0.9), Index)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Interval(Correlation, GreaterThan(0.9), Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Pairs) != len(again.Pairs) {
		t.Fatalf("index results differ: %d vs %d", len(orig.Pairs), len(again.Pairs))
	}
}

func TestPublicParallelOption(t *testing.T) {
	data, err := GenerateSensorData(SensorDataConfig{NumSeries: 16, NumSamples: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := New(data, Options{Clusters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(data, Options{Clusters: 4, Seed: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := Pair{U: 0, V: 9}
	a, b := pairValue(t, sequential, Covariance, p, Affine), pairValue(t, parallel, Covariance, p, Affine)
	if a != b {
		t.Fatalf("parallel build changed results: %v vs %v", a, b)
	}
}
