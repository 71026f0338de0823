// Package store is the embedded column-oriented store that plays the role of
// the DBMS holding the data_matrix table in the paper's architecture
// (Fig. 2).  Datasets are persisted as single-file segments containing the
// column-major binary encoding of a data matrix plus an integrity checksum;
// the Affinity engine loads a segment once and runs entirely in memory, which
// mirrors how the paper's methods scan the data matrix table during the
// pre-processing step and never touch it again at query time.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"affinity/internal/timeseries"
)

// ErrNotFound is returned when a dataset does not exist in the store.
var ErrNotFound = errors.New("store: dataset not found")

// ErrCorrupt is returned when a segment fails its integrity check.
var ErrCorrupt = errors.New("store: segment corrupt")

// ErrBadName is returned for dataset names that cannot be used as file names.
var ErrBadName = errors.New("store: invalid dataset name")

const (
	segmentExtension = ".seg"
	segmentMagic     = uint32(0x41465347) // "AFSG"
	segmentVersion   = uint32(1)
	// A segment is three header words (magic, version, payload length), the
	// payload, and a CRC32 of the payload.
	segmentHeaderSize = 12
	segmentCRCSize    = 4
)

// Store is a directory of dataset segments.
type Store struct {
	dir string
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty directory", ErrBadName)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) segmentPath(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return filepath.Join(s.dir, name+segmentExtension), nil
}

// WriteDataset persists a data matrix as a segment, atomically replacing any
// previous dataset with the same name.
func (s *Store) WriteDataset(name string, d *timeseries.DataMatrix) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("store: refusing to persist invalid dataset: %w", err)
	}
	path, err := s.segmentPath(name)
	if err != nil {
		return err
	}

	// The frame — header words, payload, the payload's CRC — is one buffer,
	// written at once.
	seg, err := d.AppendBinary(make([]byte, segmentHeaderSize))
	if err != nil {
		return fmt.Errorf("store: encoding dataset %q: %w", name, err)
	}
	payload := seg[segmentHeaderSize:]
	for i, h := range []uint32{segmentMagic, segmentVersion, uint32(len(payload))} {
		binary.LittleEndian.PutUint32(seg[4*i:], h)
	}
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))

	tmp, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp segment: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	if _, err := tmp.Write(seg); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing segment: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: committing segment: %w", err)
	}
	return nil
}

// ReadDataset loads a dataset segment, verifying its checksum.
func (s *Store) ReadDataset(name string) (*timeseries.DataMatrix, error) {
	path, err := s.segmentPath(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("store: opening %q: %w", name, err)
	}
	defer f.Close()

	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat %q: %w", name, err)
	}
	var header [segmentHeaderSize]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header (%v)", ErrCorrupt, err)
	}
	le := binary.LittleEndian
	magic, version, payloadLen := le.Uint32(header[:]), le.Uint32(header[4:]), int64(le.Uint32(header[8:]))
	if magic != segmentMagic {
		return nil, fmt.Errorf("%w: bad magic 0x%08x", ErrCorrupt, magic)
	}
	// A foreign version means the rest of the segment cannot be trusted with
	// this decoder, so it is reported as corruption like every other header
	// fault — callers branch on ErrCorrupt, not on message text.
	if version != segmentVersion {
		return nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, version)
	}
	// The length is checked against the file before it sizes a buffer.
	if payloadLen > fi.Size()-segmentHeaderSize-segmentCRCSize {
		return nil, fmt.Errorf("%w: a %d-byte payload in a %d-byte segment", ErrCorrupt, payloadLen, fi.Size())
	}
	body := make([]byte, payloadLen+segmentCRCSize)
	if _, err := io.ReadFull(f, body); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (%v)", ErrCorrupt, err)
	}
	payload := body[:payloadLen]
	if crc32.ChecksumIEEE(payload) != le.Uint32(body[payloadLen:]) {
		return nil, fmt.Errorf("%w: checksum mismatch for %q", ErrCorrupt, name)
	}
	d, err := timeseries.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return d, nil
}

// DatasetInfo summarizes a stored dataset without loading its samples.
type DatasetInfo struct {
	Name       string
	NumSeries  int
	NumSamples int
	SizeBytes  int64
}

// Describe returns metadata about a stored dataset.  The segment is fully
// verified in the process.
func (s *Store) Describe(name string) (DatasetInfo, error) {
	d, err := s.ReadDataset(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	path, err := s.segmentPath(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("store: stat %q: %w", name, err)
	}
	return DatasetInfo{
		Name:       name,
		NumSeries:  d.NumSeries(),
		NumSamples: d.NumSamples(),
		SizeBytes:  fi.Size(),
	}, nil
}

// ListDatasets returns the names of all stored datasets in sorted order.
func (s *Store) ListDatasets() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segmentExtension) {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), segmentExtension))
	}
	sort.Strings(names)
	return names, nil
}
