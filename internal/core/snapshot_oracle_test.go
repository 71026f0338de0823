package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// oracleWriteSnapshot and oracleBuildFromSnapshot are the snapshot codec as
// it was written first, one binary.Write or binary.Read per field and one
// heap object per relationship.  They define the format: the section codec
// in snapshot.go must write the same bytes and decode the same engines.
func oracleWriteSnapshot(e *engineState, w io.Writer) error {
	bw := bufio.NewWriter(w)
	clustering := e.rel.Clustering

	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	writeF64 := func(v float64) error {
		return binary.Write(bw, binary.LittleEndian, math.Float64bits(v))
	}

	header := []uint32{
		snapshotMagic, snapshotVersion,
		uint32(e.data.NumSeries()), uint32(e.data.NumSamples()), uint32(clustering.K()),
	}
	for _, h := range header {
		if err := writeU32(h); err != nil {
			return err
		}
	}
	for _, center := range clustering.Centers {
		if len(center) != e.data.NumSamples() {
			return fmt.Errorf("%w: center length %d != m %d", ErrBadSnapshot, len(center), e.data.NumSamples())
		}
		for _, v := range center {
			if err := writeF64(v); err != nil {
				return err
			}
		}
	}
	for _, omega := range clustering.Assignment {
		if err := writeU32(uint32(omega)); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(e.rel.Len())); err != nil {
		return err
	}
	// Iterate pairs in a deterministic order so identical engines produce
	// byte-identical snapshots.
	for _, pair := range e.data.AllPairs() {
		rel, ok := e.rel.Relationship(pair)
		if !ok {
			continue
		}
		fields := []uint32{uint32(rel.Pair.U), uint32(rel.Pair.V),
			uint32(rel.Pivot.Common), uint32(rel.Pivot.Cluster)}
		for _, f := range fields {
			if err := writeU32(f); err != nil {
				return err
			}
		}
		flipped := byte(0)
		if rel.Flipped {
			flipped = 1
		}
		if err := bw.WriteByte(flipped); err != nil {
			return err
		}
		a := rel.Transform.A
		for _, v := range []float64{a[0][0], a[0][1], a[1][0], a[1][1],
			rel.Transform.B[0], rel.Transform.B[1]} {
			if err := writeF64(v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func oracleBuildFromSnapshot(d *timeseries.DataMatrix, r io.Reader, cfg Config) (*Engine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	br := bufio.NewReader(r)

	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readF64 := func() (float64, error) {
		var bits uint64
		err := binary.Read(br, binary.LittleEndian, &bits)
		return math.Float64frombits(bits), err
	}

	var header [5]uint32
	for i := range header {
		v, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated header (%v)", ErrBadSnapshot, err)
		}
		header[i] = v
	}
	if header[0] != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic 0x%08x", ErrBadSnapshot, header[0])
	}
	if header[1] != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, header[1])
	}
	n, m, k := int(header[2]), int(header[3]), int(header[4])
	if n != d.NumSeries() || m != d.NumSamples() {
		return nil, fmt.Errorf("%w: snapshot is for a %dx%d dataset, got %dx%d",
			ErrBadSnapshot, m, n, d.NumSamples(), d.NumSeries())
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: implausible cluster count %d", ErrBadSnapshot, k)
	}

	centers := make([][]float64, k)
	for i := range centers {
		center := make([]float64, m)
		for j := range center {
			v, err := readF64()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated centers (%v)", ErrBadSnapshot, err)
			}
			center[j] = v
		}
		centers[i] = center
	}
	assignment := make([]int, n)
	for i := range assignment {
		v, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated assignment (%v)", ErrBadSnapshot, err)
		}
		if int(v) >= k {
			return nil, fmt.Errorf("%w: series %d assigned to cluster %d of %d", ErrBadSnapshot, i, v, k)
		}
		assignment[i] = int(v)
	}
	clustering := &cluster.Result{
		Centers:          centers,
		Assignment:       assignment,
		ProjectionErrors: make([]float64, n),
		Converged:        true,
	}

	count, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated relationship count (%v)", ErrBadSnapshot, err)
	}
	maxPairs := n * (n - 1) / 2
	if int(count) > maxPairs {
		return nil, fmt.Errorf("%w: %d relationships for %d pairs", ErrBadSnapshot, count, maxPairs)
	}

	// The records become the assignment list in file order, one
	// relationship per slot.
	assignments := make([]symex.Assignment, count)
	rels := make([]*symex.Relationship, count)
	for i := range rels {
		var fields [4]uint32
		for j := range fields {
			v, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated relationship %d (%v)", ErrBadSnapshot, i, err)
			}
			fields[j] = v
		}
		flippedByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated relationship %d (%v)", ErrBadSnapshot, i, err)
		}
		var values [6]float64
		for j := range values {
			v, err := readF64()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated relationship %d (%v)", ErrBadSnapshot, i, err)
			}
			values[j] = v
		}
		pair := timeseries.Pair{U: timeseries.SeriesID(fields[0]), V: timeseries.SeriesID(fields[1])}
		if !pair.Valid() || int(pair.V) >= n {
			return nil, fmt.Errorf("%w: invalid pair %v", ErrBadSnapshot, pair)
		}
		pivot := symex.Pivot{Common: timeseries.SeriesID(fields[2]), Cluster: int(fields[3])}
		if !pair.Contains(pivot.Common) || pivot.Cluster < 0 || pivot.Cluster >= k {
			return nil, fmt.Errorf("%w: invalid pivot %v for pair %v", ErrBadSnapshot, pivot, pair)
		}
		assignments[i] = symex.Assignment{Pair: pair, Pivot: pivot}
		rels[i] = &symex.Relationship{
			Pair:  pair,
			Pivot: pivot,
			Transform: affine.Transform{
				A: [2][2]float64{{values[0], values[1]}, {values[2], values[3]}},
				B: [2]float64{values[4], values[5]},
			},
			Flipped: flippedByte == 1,
		}
	}
	layout, err := symex.NewLayout(n, assignments)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return assembleEngine(d, cfg, symex.NewResult(layout, clustering, rels),
		BuildInfo{}, time.Now())
}
