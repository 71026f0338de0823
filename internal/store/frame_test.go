package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSegmentFrameMatchesOracle: a segment is the header words, the payload
// WriteBinary writes and the payload's CRC32, as the per-field framing it
// replaced wrote them.
func TestSegmentFrameMatchesOracle(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := testMatrix(t)
	if err := s.WriteDataset("demo", d); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(s.Dir(), "demo.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var payload, want bytes.Buffer
	if err := d.WriteBinary(&payload); err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(&want)
	for _, h := range []uint32{segmentMagic, segmentVersion, uint32(payload.Len())} {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	w.Write(payload.Bytes())
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("the segment differs from the per-field framing's bytes")
	}
}

// TestForgedSegmentLength: a 16-byte segment whose header claims a 1 GiB
// payload is corrupt, and rejecting it allocates nothing near the claim.
func TestForgedSegmentLength(t *testing.T) {
	s, _ := Open(t.TempDir())
	var seg []byte
	for _, w := range []uint32{segmentMagic, segmentVersion, 1 << 30, 0} {
		seg = binary.LittleEndian.AppendUint32(seg, w)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "forged.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.ReadDataset("forged")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged payload length err = %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a 16-byte segment allocated %d bytes", alloc)
	}
}
