package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// The snapshot format persists the expensive part of an engine build — the
// AFCLST clustering and the SYMEX+ affine relationships — so that a process
// restart (or a different process reading the same dataset from the column
// store) can rebuild the engine without re-running the least-squares fits.
// Pivot summaries, per-series statistics and the SCAPE index are cheap to
// recompute and are rebuilt at load time, which also keeps the snapshot
// independent of index configuration.
//
// Layout (little endian):
//
//	magic    uint32  "AFSN"
//	version  uint32
//	n        uint32  number of series
//	m        uint32  samples per series
//	k        uint32  number of cluster centers
//	k × (m float64)          cluster centers
//	n × uint32               cluster assignment ω(v)
//	g        uint32  number of affine relationships
//	g × relationship records:
//	    pairU, pairV  uint32
//	    pivotCommon   uint32
//	    pivotCluster  uint32
//	    flipped       uint8
//	    A row-major   4 float64
//	    b             2 float64
//
// The writer appends every field to one buffer of the exact size and writes
// it once, the records in canonical pair order, so identical engines write
// identical bytes.  The reader reads exactly these bytes, a section at a time
// through one reused chunk buffer; it sizes what it allocates by the dataset
// (centres and assignment) or by the bytes that have arrived (relationships,
// whose count is a claim until they are in).
const (
	snapshotMagic   = uint32(0x4146534e) // "AFSN"
	snapshotVersion = uint32(1)
	recordSize      = 4*4 + 1 + 6*8
	snapshotChunk   = 16 << 10 // the most the reader reads at once
)

// ErrBadSnapshot is returned when a snapshot cannot be decoded or does not
// match the dataset it is loaded against.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// WriteSnapshot persists the engine's clustering and affine relationships
// (of the current epoch, for a streaming engine).
func (e *Engine) WriteSnapshot(w io.Writer) error {
	st := e.acquire()
	defer e.release(st)
	return st.writeSnapshot(w)
}

func (e *engineState) writeSnapshot(w io.Writer) error {
	clustering, n, m := e.rel.Clustering, e.data.NumSeries(), e.data.NumSamples()
	k, le := clustering.K(), binary.LittleEndian
	b := make([]byte, 0, 5*4+8*k*m+4*n+4+recordSize*e.rel.Len())
	for _, h := range [...]int{int(snapshotMagic), int(snapshotVersion), n, m, k} {
		b = le.AppendUint32(b, uint32(h))
	}
	for _, center := range clustering.Centers {
		if len(center) != m {
			return fmt.Errorf("%w: center length %d != m %d", ErrBadSnapshot, len(center), m)
		}
		for _, v := range center {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, omega := range clustering.Assignment {
		b = le.AppendUint32(b, uint32(omega))
	}
	b = le.AppendUint32(b, uint32(e.rel.Len()))
	for rel := range e.rel.InPairOrder() {
		for _, f := range [...]int{int(rel.Pair.U), int(rel.Pair.V), int(rel.Pivot.Common), rel.Pivot.Cluster} {
			b = le.AppendUint32(b, uint32(f))
		}
		b = append(b, flagByte(rel.Flipped))
		a, c := rel.Transform.A, rel.Transform.B
		for _, v := range [...]float64{a[0][0], a[0][1], a[1][0], a[1][1], c[0], c[1]} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	_, err := w.Write(b)
	return err
}

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// BuildFromSnapshot rebuilds an engine from a snapshot previously written
// with WriteSnapshot and the dataset it was built on.  The clustering and the
// affine relationships are taken from the snapshot; pivot summaries,
// per-series statistics and (unless cfg.SkipIndex) the SCAPE index are
// recomputed.  It reads exactly the snapshot's bytes from r.  A snapshot
// WriteSnapshot could not have written, or one no engine can be assembled
// from on d and cfg, is rejected with ErrBadSnapshot.
func BuildFromSnapshot(d *timeseries.DataMatrix, r io.Reader, cfg Config) (*Engine, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	rel, err := readSnapshot(r, d.NumSeries(), d.NumSamples())
	if err != nil {
		return nil, err
	}
	e, err := assembleEngine(d, cfg.withDefaults(), rel, BuildInfo{}, time.Now())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return e, nil
}

// readSnapshot decodes a snapshot of an n×m dataset.
func readSnapshot(r io.Reader, n, m int) (*symex.Result, error) {
	buf, le := make([]byte, snapshotChunk), binary.LittleEndian
	// section reads the next size bytes, a chunk of whole elem-byte elements
	// at a time, and hands each chunk to decode.
	section := func(what string, size, elem int, decode func([]byte) error) error {
		for size > 0 {
			chunk := buf[:min(size, len(buf)/elem*elem)]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return fmt.Errorf("%w: truncated %s (%v)", ErrBadSnapshot, what, err)
			}
			if err := decode(chunk); err != nil {
				return err
			}
			size -= len(chunk)
		}
		return nil
	}
	var header [5]int // magic, version, n, m, k
	if err := section("header", 4*len(header), 4, func(b []byte) error {
		for i := range header {
			header[i] = int(le.Uint32(b[4*i:]))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	k := header[4]
	switch {
	case uint32(header[0]) != snapshotMagic:
		return nil, fmt.Errorf("%w: bad magic 0x%08x", ErrBadSnapshot, header[0])
	case uint32(header[1]) != snapshotVersion:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, header[1])
	case header[2] != n || header[3] != m:
		return nil, fmt.Errorf("%w: snapshot is for a %dx%d dataset, got %dx%d", ErrBadSnapshot, header[3], header[2], m, n)
	case k <= 0 || k > n:
		return nil, fmt.Errorf("%w: implausible cluster count %d", ErrBadSnapshot, k)
	}

	flat, assignment := make([]float64, 0, k*m), make([]int, 0, n)
	if err := section("centers", 8*k*m, 8, func(b []byte) error {
		for i := 0; i < len(b); i += 8 {
			flat = append(flat, math.Float64frombits(le.Uint64(b[i:])))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := section("assignment", 4*n, 4, func(b []byte) error {
		for i := 0; i < len(b); i += 4 {
			if omega := int(le.Uint32(b[i:])); omega < k {
				assignment = append(assignment, omega)
			} else {
				return fmt.Errorf("%w: series %d assigned to cluster %d of %d", ErrBadSnapshot, len(assignment), omega, k)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	clustering := &cluster.Result{Centers: centers, Assignment: assignment, ProjectionErrors: make([]float64, n), Converged: true}

	var count int
	if err := section("relationship count", 4, 4, func(b []byte) error {
		count = int(le.Uint32(b))
		return nil
	}); err != nil {
		return nil, err
	}
	if maxPairs := n * (n - 1) / 2; count > maxPairs {
		return nil, fmt.Errorf("%w: %d relationships for %d pairs", ErrBadSnapshot, count, maxPairs)
	}
	// The records land in slabs each sized by the records already read, so
	// the slabs total exactly count records and none is copied.  A record
	// must be one WriteSnapshot writes: a pair of the dataset past the last
	// one in canonical order, a pivot on one of its series and a known
	// cluster, and the flag that says which series.
	var slabs [][]symex.Relationship
	var free []symex.Relationship // the newest slab's unfilled tail
	read, last := 0, timeseries.Pair{}
	if err := section("relationships", recordSize*count, recordSize, func(b []byte) error {
		for ; len(b) > 0; b = b[recordSize:] {
			pair := timeseries.Pair{U: timeseries.SeriesID(le.Uint32(b)), V: timeseries.SeriesID(le.Uint32(b[4:]))}
			pivot := symex.Pivot{Common: timeseries.SeriesID(le.Uint32(b[8:])), Cluster: int(le.Uint32(b[12:]))}
			if !pair.Valid() || int(pair.V) >= n || timeseries.ComparePairs(pair, last) <= 0 {
				return fmt.Errorf("%w: pair %v after %v", ErrBadSnapshot, pair, last)
			}
			if !pair.Contains(pivot.Common) || pivot.Cluster >= k || b[16] != flagByte(pivot.Common == pair.V) {
				return fmt.Errorf("%w: invalid pivot %v (flag %d) for pair %v", ErrBadSnapshot, pivot, b[16], pair)
			}
			var v [6]float64
			for i := range v {
				v[i] = math.Float64frombits(le.Uint64(b[17+8*i:]))
			}
			if len(free) == 0 {
				free = make([]symex.Relationship, min(count-read, max(read, len(buf)/recordSize)))
				slabs = append(slabs, free)
			}
			free[0] = symex.Relationship{
				Pair: pair, Pivot: pivot, Flipped: pivot.Common == pair.V,
				Transform: affine.Transform{A: [2][2]float64{{v[0], v[1]}, {v[2], v[3]}}, B: [2]float64{v[4], v[5]}},
			}
			free, read, last = free[1:], read+1, pair
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The records become the assignment list in file order, one relationship
	// per slot: pairs without a record (a snapshot of a partial layout) have
	// no assignment and are answered naively.
	assignments, rels := make([]symex.Assignment, 0, count), make([]*symex.Relationship, 0, count)
	for _, slab := range slabs {
		for i := range slab {
			assignments = append(assignments, symex.Assignment{Pair: slab[i].Pair, Pivot: slab[i].Pivot})
			rels = append(rels, &slab[i])
		}
	}
	layout, err := symex.NewLayout(n, assignments)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return symex.NewResult(layout, clustering, rels), nil
}
