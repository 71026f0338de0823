package timeseries

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// CSV layout: one column per series, one row per sample.  The first line may
// be a header with series names; it is detected by attempting to parse the
// first field as a number.

// WriteCSV writes the data matrix in column-per-series CSV form, including a
// header row with the series names.  The buffered writer keeps its first
// error, so Flush reports any.
func (d *DataMatrix) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for j, name := range d.names {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(escapeCSV(name))
	}
	bw.WriteByte('\n')
	for i := 0; i < d.m; i++ {
		for j := range d.series {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatFloat(d.series[j][i], 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func escapeCSV(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ReadCSV parses a column-per-series CSV document.  A header row of series
// names is optional; it is detected when the first field of the first row is
// not parseable as a float.
func ReadCSV(r io.Reader) (*DataMatrix, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	var names []string
	var columns [][]float64
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		fields := splitCSVLine(text)
		if columns == nil {
			// First non-empty line: header or data?
			if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
				names = fields
				columns = make([][]float64, len(fields))
				continue
			}
			columns = make([][]float64, len(fields))
			names = make([]string, len(fields))
			for i := range names {
				names[i] = fmt.Sprintf("series-%d", i)
			}
		}
		if len(fields) != len(columns) {
			return nil, fmt.Errorf("timeseries: line %d has %d fields, want %d: %w",
				line, len(fields), len(columns), ErrShapeMismatch)
		}
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("timeseries: line %d field %d: %v", line, j+1, err)
			}
			columns[j] = append(columns[j], v)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(columns) == 0 || len(columns[0]) == 0 {
		return nil, fmt.Errorf("timeseries: empty CSV input: %w", ErrShapeMismatch)
	}
	return NewNamedDataMatrix(names, columns)
}

// splitCSVLine splits a CSV line handling double-quoted fields.
func splitCSVLine(line string) []string {
	var fields []string
	var cur strings.Builder
	inQuotes := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			if inQuotes && i+1 < len(line) && line[i+1] == '"' {
				cur.WriteByte('"')
				i++
			} else {
				inQuotes = !inQuotes
			}
		case c == ',' && !inQuotes:
			fields = append(fields, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	fields = append(fields, cur.String())
	return fields
}

// Binary format: a compact little-endian layout used by the embedded column
// store and for snapshotting generated datasets.
//
//	magic   uint32  ("AFTS")
//	version uint32
//	n       uint32  number of series
//	m       uint32  samples per series
//	for each series: nameLen uint32, name bytes, m float64 samples
const (
	binaryMagic   = 0x41465453 // "AFTS"
	binaryVersion = 1
	binaryChunk   = 16 << 10 // the most ReadBinary reads at once
)

// AppendBinary appends the matrix in the binary format to b, growing b once
// by the encoded size.  It implements encoding.BinaryAppender.
func (d *DataMatrix) AppendBinary(b []byte) ([]byte, error) {
	size := 16
	for _, name := range d.names {
		size += 4 + len(name) + 8*d.m
	}
	b = slices.Grow(b, size)
	for _, h := range [...]int{binaryMagic, binaryVersion, d.NumSeries(), d.m} {
		b = binary.LittleEndian.AppendUint32(b, uint32(h))
	}
	for i, s := range d.series {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(d.names[i])))
		b = append(b, d.names[i]...)
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// WriteBinary serializes the data matrix in the binary format, in one write.
func (d *DataMatrix) WriteBinary(w io.Writer) error {
	b, _ := d.AppendBinary(nil) // appending cannot fail
	_, err := w.Write(b)
	return err
}

// ReadBinary parses a data matrix previously written with WriteBinary,
// reading exactly its bytes from r.  Samples are read a chunk at a time and a
// series' samples grow with its chunks until the first series has proven m,
// so a header claiming more than r holds costs a chunk, not the claim.
func ReadBinary(r io.Reader) (*DataMatrix, error) {
	buf := make([]byte, binaryChunk)
	if _, err := io.ReadFull(r, buf[:16]); err != nil {
		return nil, fmt.Errorf("timeseries: reading binary header: %w", err)
	}
	le := binary.LittleEndian
	magic, version, n, m := le.Uint32(buf), le.Uint32(buf[4:]), int(le.Uint32(buf[8:])), int(le.Uint32(buf[12:]))
	switch {
	case magic != binaryMagic:
		return nil, fmt.Errorf("timeseries: bad magic 0x%08x", magic)
	case version != binaryVersion:
		return nil, fmt.Errorf("timeseries: unsupported binary version %d", version)
	case (n == 0) != (m == 0):
		return nil, fmt.Errorf("%w: %d series of %d samples", ErrShapeMismatch, n, m)
	}
	d, proven := &DataMatrix{m: m}, min(m, binaryChunk/8)
	for i := range n {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return nil, fmt.Errorf("timeseries: reading series %d name length: %w", i, err)
		}
		nameLen := int(le.Uint32(buf))
		if nameLen > 1<<20 {
			return nil, fmt.Errorf("timeseries: series %d name length %d is implausible", i, nameLen)
		}
		if nameLen > len(buf) {
			buf = make([]byte, nameLen)
		}
		if _, err := io.ReadFull(r, buf[:nameLen]); err != nil {
			return nil, fmt.Errorf("timeseries: reading series %d name: %w", i, err)
		}
		d.names = append(d.names, string(buf[:nameLen]))
		values := make([]float64, 0, proven)
		for len(values) < m {
			chunk := buf[:8*min(m-len(values), binaryChunk/8)]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return nil, fmt.Errorf("timeseries: reading series %d sample %d: %w", i, len(values), err)
			}
			for j := 0; j < len(chunk); j += 8 {
				values = append(values, math.Float64frombits(le.Uint64(chunk[j:])))
			}
		}
		d.series = append(d.series, slices.Clip(values))
		proven = m // the first series arrived whole
	}
	return d, nil
}
