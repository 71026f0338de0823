package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"affinity/internal/timeseries"
)

func testMatrix(t *testing.T) *timeseries.DataMatrix {
	t.Helper()
	d, err := timeseries.NewNamedDataMatrix(
		[]string{"a", "b", "c"},
		[][]float64{
			{1.5, 2.5, 3.5, 4.5},
			{-1, -2, -3, -4},
			{100, 200, 300, 400},
		})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir = %q", s.Dir())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("store directory missing: %v", err)
	}
	if _, err := Open(""); err == nil {
		t.Fatal("empty directory should error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := testMatrix(t)
	if err := s.WriteDataset("demo", d); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	back, err := s.ReadDataset("demo")
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	if back.NumSeries() != 3 || back.NumSamples() != 4 {
		t.Fatalf("round trip shape %dx%d", back.NumSamples(), back.NumSeries())
	}
	for i := 0; i < 3; i++ {
		a, _ := d.Series(timeseries.SeriesID(i))
		b, _ := back.Series(timeseries.SeriesID(i))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("value mismatch at series %d sample %d", i, j)
			}
		}
		if back.Name(timeseries.SeriesID(i)) != d.Name(timeseries.SeriesID(i)) {
			t.Fatal("name mismatch")
		}
	}
}

func TestWriteOverwritesAtomically(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := testMatrix(t)
	if err := s.WriteDataset("demo", d); err != nil {
		t.Fatal(err)
	}
	d2, _ := timeseries.NewDataMatrix([][]float64{{9, 9}})
	if err := s.WriteDataset("demo", d2); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadDataset("demo")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeries() != 1 || back.NumSamples() != 2 {
		t.Fatal("overwrite did not take effect")
	}
	// No stray temp files left behind.
	entries, _ := os.ReadDir(s.Dir())
	if len(entries) != 1 {
		t.Fatalf("store directory has %d entries, want 1", len(entries))
	}
}

func TestListDescribeDelete(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := testMatrix(t)
	for _, name := range []string{"zeta", "alpha"} {
		if err := s.WriteDataset(name, d); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("ListDatasets = %v", names)
	}

	info, err := s.Describe("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumSeries != 3 || info.NumSamples != 4 || info.SizeBytes <= 0 || info.Name != "alpha" {
		t.Fatalf("Describe = %+v", info)
	}
	if _, err := s.Describe("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Describe missing err = %v", err)
	}
}

func TestBadNames(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := testMatrix(t)
	for _, name := range []string{"", "a/b", `a\b`, ".."} {
		if err := s.WriteDataset(name, d); !errors.Is(err, ErrBadName) {
			t.Fatalf("WriteDataset(%q) err = %v", name, err)
		}
		if _, err := s.ReadDataset(name); !errors.Is(err, ErrBadName) {
			t.Fatalf("ReadDataset(%q) err = %v", name, err)
		}
		if _, err := s.Describe(name); !errors.Is(err, ErrBadName) {
			t.Fatalf("Describe(%q) err = %v", name, err)
		}
	}
}

func TestRefusesInvalidDataset(t *testing.T) {
	s, _ := Open(t.TempDir())
	empty := &timeseries.DataMatrix{}
	if err := s.WriteDataset("bad", empty); err == nil {
		t.Fatal("empty dataset should be rejected")
	}
}

func TestCorruptionDetection(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := testMatrix(t)
	if err := s.WriteDataset("demo", d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "demo.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte.
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0xff
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload err = %v", err)
	}

	// Truncate the file.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated segment err = %v", err)
	}

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic err = %v", err)
	}

	// Foreign version (byte 4 starts the little-endian version field).
	bad = append([]byte(nil), raw...)
	bad[4] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version err = %v", err)
	}

	// Flipped checksum byte (the CRC32 trails the payload).
	bad = append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped checksum err = %v", err)
	}

	// Header cut off mid-field.
	if err := os.WriteFile(path, raw[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDataset("demo"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header err = %v", err)
	}
}

func TestReadMissingDataset(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.ReadDataset("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := os.WriteFile(filepath.Join(s.Dir(), "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("ListDatasets = %v, want empty", names)
	}
}
