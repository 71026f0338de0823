package timeseries

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// oracleWriteBinary and oracleReadBinary are the dataset codec as it was
// written first, one binary.Write or binary.Read per field.  They define the
// format: the section codec in io.go must write the same bytes and decode
// the same matrices.
func oracleWriteBinary(d *DataMatrix, w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := []uint32{binaryMagic, binaryVersion, uint32(d.NumSeries()), uint32(d.m)}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for i, s := range d.series {
		name := []byte(d.names[i])
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		for _, v := range s {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func oracleReadBinary(r io.Reader) (*DataMatrix, error) {
	br := bufio.NewReader(r)
	var magic, version, n, m uint32
	for _, p := range []*uint32{&magic, &version, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("timeseries: reading binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("timeseries: bad magic 0x%08x", magic)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("timeseries: unsupported binary version %d", version)
	}
	d := &DataMatrix{}
	for i := uint32(0); i < n; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("timeseries: reading series %d name length: %w", i, err)
		}
		if nameLen > 1<<20 {
			return nil, fmt.Errorf("timeseries: series %d name length %d is implausible", i, nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return nil, fmt.Errorf("timeseries: reading series %d name: %w", i, err)
		}
		values := make([]float64, m)
		for j := range values {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return nil, fmt.Errorf("timeseries: reading series %d sample %d: %w", i, j, err)
			}
			values[j] = math.Float64frombits(bits)
		}
		if err := d.Append(string(nameBytes), values); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// randomMatrix draws an n×m matrix whose names are empty, short, or contain
// the CSV specials and non-ASCII bytes, and whose samples include signed
// zeros, infinities, NaN payloads and subnormals.
func randomMatrix(rng *rand.Rand, n, m int) *DataMatrix {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64}
	names := []string{"", "a", `we"ird,name`, "sér\nie", string([]byte{0xff, 0x00, 0x7f})}
	d := &DataMatrix{}
	for i := 0; i < n; i++ {
		values := make([]float64, m)
		for j := range values {
			if rng.Intn(8) == 0 {
				values[j] = specials[rng.Intn(len(specials))]
			} else {
				values[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		if err := d.Append(names[rng.Intn(len(names))], values); err != nil {
			panic(err)
		}
	}
	return d
}

// sameMatrix reports whether two decoded matrices hold the same names and
// the same sample bits.
func sameMatrix(a, b *DataMatrix) bool {
	if a.NumSeries() != b.NumSeries() || a.NumSamples() != b.NumSamples() || !reflect.DeepEqual(a.names, b.names) {
		return false
	}
	for v := range a.series {
		for j := range a.series[v] {
			if math.Float64bits(a.series[v][j]) != math.Float64bits(b.series[v][j]) {
				return false
			}
		}
	}
	return true
}

// TestBinaryCodecMatchesOracle: on random shapes, down to one series of one
// sample and empty names, WriteBinary writes the oracle's bytes and
// ReadBinary decodes what the oracle decodes, reading no byte past the
// matrix.
func TestBinaryCodecMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 4}, {1, 3000}, {7, 2049}, {40, 120}}
	for i := 0; i < 20; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(12), 1 + rng.Intn(300)})
	}
	for _, shape := range shapes {
		d := randomMatrix(rng, shape[0], shape[1])
		var want, got bytes.Buffer
		if err := oracleWriteBinary(d, &want); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d×%d: WriteBinary differs from the oracle's bytes", shape[0], shape[1])
		}
		oracle, err := oracleReadBinary(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(append(want.Bytes(), "trailer"...))
		back, err := ReadBinary(r)
		if err != nil {
			t.Fatalf("%d×%d: %v", shape[0], shape[1], err)
		}
		if !sameMatrix(back, oracle) || !sameMatrix(back, d) {
			t.Fatalf("%d×%d: ReadBinary decodes another matrix than the oracle", shape[0], shape[1])
		}
		if r.Len() != len("trailer") {
			t.Fatalf("%d×%d: ReadBinary left %d trailing bytes, want %d", shape[0], shape[1], r.Len(), len("trailer"))
		}
	}
}

// allocatedBy returns the bytes f allocates, as the TotalAlloc delta.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBinaryForgedHeader: a 20-byte input whose header claims 2²⁷ (or
// 2³² − 1) samples per series is rejected after allocating what has arrived,
// not what was claimed.
func TestReadBinaryForgedHeader(t *testing.T) {
	for _, m := range []uint32{1 << 27, math.MaxUint32} {
		var forged []byte
		for _, w := range []uint32{binaryMagic, binaryVersion, 1, m, 0} {
			forged = binary.LittleEndian.AppendUint32(forged, w)
		}
		var err error
		alloc := allocatedBy(func() { _, err = ReadBinary(bytes.NewReader(forged)) })
		if err == nil {
			t.Fatalf("m = %d: a 20-byte input decoded", m)
		}
		if alloc >= 1<<20 {
			t.Fatalf("m = %d: rejecting a 20-byte input allocated %d bytes", m, alloc)
		}
	}
}

// FuzzReadBinary: ReadBinary never panics, and whatever it accepts writes back
// as exactly the bytes it consumed.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := sample3x4().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:20])
	forged := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(forged[12:], 1<<27)
	f.Add(forged)
	f.Add(append(append([]byte(nil), raw...), 1, 2, 3))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		d, err := ReadBinary(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("decoded %d bytes that write back as %d other bytes", len(consumed), out.Len())
		}
	})
}
