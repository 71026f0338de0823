package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"

	"affinity/internal/dataset"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// sameRelationships reports whether two results hold the same clustering
// bits, the same assignment list and the same relationship bits slot by slot.
func sameRelationships(a, b *symex.Result) bool {
	ca, cb := a.Clustering, b.Clustering
	if ca.K() != cb.K() || len(ca.Assignment) != len(cb.Assignment) || len(a.AssignmentList()) != len(b.AssignmentList()) {
		return false
	}
	for c := range ca.Centers {
		for j := range ca.Centers[c] {
			if math.Float64bits(ca.Centers[c][j]) != math.Float64bits(cb.Centers[c][j]) {
				return false
			}
		}
	}
	for v := range ca.Assignment {
		if ca.Assignment[v] != cb.Assignment[v] {
			return false
		}
	}
	for slot, as := range a.AssignmentList() {
		ra, rb := a.At(slot), b.At(slot)
		if as != b.AssignmentList()[slot] || ra.Pair != rb.Pair || ra.Pivot != rb.Pivot || ra.Flipped != rb.Flipped {
			return false
		}
		ta, tb := ra.Transform, rb.Transform
		for i, x := range [...]float64{ta.A[0][0], ta.A[0][1], ta.A[1][0], ta.A[1][1], ta.B[0], ta.B[1]} {
			y := [...]float64{tb.A[0][0], tb.A[0][1], tb.A[1][0], tb.A[1][1], tb.B[0], tb.B[1]}[i]
			if math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// TestSnapshotCodecMatchesOracle: over random shapes — down to the smallest
// engine, two series of two samples in one cluster, partial relationship sets
// over the full and over the assigned universe, a streamed epoch — WriteSnapshot writes the oracle's
// bytes and BuildFromSnapshot decodes what the oracle decodes.
func TestSnapshotCodecMatchesOracle(t *testing.T) {
	for _, cols := range [][][]float64{{{1, 2}, {3, 5}}, {{1, 2, 4}, {3, 5, 1}, {0, 1, 0}}} {
		d, err := timeseries.NewDataMatrix(cols)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Build(d, Config{Clusters: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotAgainstOracle(t, e, Config{Clusters: 1})
	}
	type shape struct {
		n, m  int
		cfg   Config
		limit int
	}
	shapes := []shape{
		{2, 8, Config{Clusters: 1, Seed: 1}, 0},
		{3, 5, Config{Clusters: 2, Seed: 2}, 0},
		{9, 40, Config{Clusters: 3, Seed: 3}, 20},
		{17, 33, Config{Clusters: 5, Seed: 4, AssignedPairsOnly: true}, 40},
		{30, 64, Config{Clusters: 6, Seed: 5}, 0},
	}
	for i, sh := range shapes {
		d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: sh.n, NumSamples: sh.m, NumGroups: 2, Noise: 0.05, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotAgainstOracle(t, buildLimited(t, d, sh.cfg, sh.limit), sh.cfg)
	}
	fixture, _ := snapshotFixtureBytes(t)
	checkSnapshotAgainstOracle(t, fixture, Config{Clusters: 3})
}

func checkSnapshotAgainstOracle(t *testing.T, e *Engine, cfg Config) {
	t.Helper()
	var want, got bytes.Buffer
	if err := oracleWriteSnapshot(e.escapedState(), &want); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%d×%d: WriteSnapshot differs from the oracle's bytes", e.Data().NumSeries(), e.Data().NumSamples())
	}
	oracle, err := oracleBuildFromSnapshot(e.Data(), bytes.NewReader(want.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := BuildFromSnapshot(e.Data(), bytes.NewReader(want.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelationships(back.Relationships(), oracle.Relationships()) {
		t.Fatalf("%d×%d: BuildFromSnapshot decodes other relationships than the oracle", e.Data().NumSeries(), e.Data().NumSamples())
	}
}

// TestSnapshotLeavesTrailingBytes: a snapshot followed by more data in the
// same reader is decoded without reading past its last record.
func TestSnapshotLeavesTrailingBytes(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 36})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trailer := []byte("next section")
	r := bytes.NewReader(append(buf.Bytes(), trailer...))
	if _, err := BuildFromSnapshot(e.Data(), r, Config{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(trailer) {
		t.Fatalf("%d bytes left after the snapshot, want the %d-byte trailer", r.Len(), len(trailer))
	}
}

// TestSnapshotForgedCountAllocation: a snapshot whose relationship count
// claims every pair of a 300-series dataset but holds only the 299 records
// of series 0 is rejected after allocating for what arrived, not for the
// claim.
func TestSnapshotForgedCountAllocation(t *testing.T) {
	const n, m = 300, 32
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: n, NumSamples: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	var forged []byte
	for _, h := range []uint32{snapshotMagic, snapshotVersion, n, m, 1} {
		forged = le.AppendUint32(forged, h)
	}
	forged = append(forged, make([]byte, 8*m+4*n)...) // one centre, every series in it
	forged = le.AppendUint32(forged, n*(n-1)/2)
	for v := 1; v < n; v++ { // pair (0, v) on pivot (0, cluster 0), zero transform
		forged = le.AppendUint32(le.AppendUint32(forged, 0), uint32(v))
		forged = append(forged, make([]byte, recordSize-8)...)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = BuildFromSnapshot(d, bytes.NewReader(forged), Config{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("forged count err = %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a forged count allocated %d bytes", alloc)
	}
}

// FuzzBuildFromSnapshot: against the fixture window, BuildFromSnapshot never
// panics, rejects with ErrBadSnapshot, and whatever it accepts writes back
// as exactly the bytes it consumed.
func FuzzBuildFromSnapshot(f *testing.F) {
	e, fresh := snapshotFixtureBytes(f)
	fixture, err := os.ReadFile("testdata/snapshot_pr17.bin")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{fixture, fresh, fixture[:20], fixture[:len(fixture)/2], fixture[:len(fixture)-1]} {
		f.Add(seed)
	}
	k := e.Relationships().Clustering.K()
	countAt := 20 + 8*k*e.Data().NumSamples() + 4*e.Data().NumSeries()
	forged := append([]byte(nil), fixture...)
	binary.LittleEndian.PutUint32(forged[countAt:], uint32(e.Data().NumPairs()))
	f.Add(forged)
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		restored, err := BuildFromSnapshot(e.Data(), r, Config{Clusters: 3})
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejected with %v, not ErrBadSnapshot", err)
			}
			return
		}
		var out bytes.Buffer
		if err := restored.WriteSnapshot(&out); err != nil {
			t.Fatal(err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("decoded %d bytes that write back as %d other bytes", len(consumed), out.Len())
		}
	})
}
