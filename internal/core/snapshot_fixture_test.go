package core

import (
	"bytes"
	"os"
	"testing"

	"affinity/internal/timeseries"
)

// snapshotFixtureBytes builds the engine that streams to the window of
// testdata/snapshot_pr17.bin — the fixture's clustering and three
// drift-selected refits, without the LSFD bound that left some of the
// fixture's pairs without a relationship — and returns its snapshot.
func snapshotFixtureBytes(t testing.TB) (*Engine, []byte) {
	t.Helper()
	fx := makeStreamFixture(t, 14, 60, 12, 3)
	e, err := Build(fx.window, Config{
		Clusters: 3, Seed: 9,
		Stream: StreamConfig{DriftBound: 0.02, StatsRefreshEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for _, tick := range fx.ticks[epoch*4 : epoch*4+4] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// TestSnapshotBytesMatchMapStoreFixture: the fixture was written by the
// engine while its relationships still lived in two maps (the commit before
// the slot store), by an LSFD bound that pruned some of them; it is never
// regenerated.  It restores into a partial layout, and a snapshot decoded from
// it must write the same bytes back.
func TestSnapshotBytesMatchMapStoreFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_pr17.bin")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := snapshotFixtureBytes(t)
	restored, err := BuildFromSnapshot(e.Data(), bytes.NewReader(want), Config{Clusters: 3, Stream: StreamConfig{DriftBound: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("a decoded snapshot does not write the bytes it was decoded from")
	}

	// The decoded records are the assignment list — in file order, indexed
	// once — and the first Advance refits over that same layout instead of
	// reconstructing and re-sorting a list.
	rel := restored.Relationships()
	if len(rel.AssignmentList()) != rel.Len() || rel.Len() >= e.Data().NumPairs() {
		t.Fatalf("decoded %d assignments for %d relationships over %d pairs: want a partial layout", len(rel.AssignmentList()), rel.Len(), e.Data().NumPairs())
	}
	for i, a := range rel.AssignmentList() {
		inOrder := true
		if i > 0 {
			prev := rel.AssignmentList()[i-1].Pair
			inOrder = timeseries.ComparePairs(prev, a.Pair) < 0
		}
		if rel.At(i).Pair != a.Pair || !inOrder {
			t.Fatalf("decoded slot %d is out of file order", i)
		}
	}
	fx := makeStreamFixture(t, 14, 60, 12, 3)
	for _, tick := range fx.ticks[:4] {
		if err := restored.Append(tick); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := restored.Advance(); err != nil {
		t.Fatal(err)
	}
	if restored.Relationships().Layout() != rel.Layout() {
		t.Fatal("the decoded engine's first Advance rebuilt its assignment layout")
	}
}
