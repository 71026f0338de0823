// Package mat provides the dense linear algebra primitives used by the
// Affinity framework: matrices, vectors, one-sided Jacobi SVD, pseudo-inverse
// and least-squares solves.
//
// The package is deliberately small and self-contained (standard library
// only).  The workloads in Affinity involve either tall-and-skinny matrices
// (an m-by-2 sequence pair matrix or an m-by-3 design matrix, with m in the
// hundreds or thousands) or tiny square matrices (2-by-2 transformation
// matrices, k-by-k Gram matrices), so the implementations favour clarity and
// numerical robustness over blocked performance.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimensionMismatch is returned when operands have incompatible shapes.
var ErrDimensionMismatch = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix.  Matrices are mutable; methods
// that return a new Matrix never alias the receiver's backing storage unless
// explicitly documented.
type Matrix struct {
	rows int
	cols int
	data []float64 // row-major, len == rows*cols
}

// New returns a zero-initialized matrix with the given shape.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("mat: row %d has length %d, want %d: %w",
				i, len(r), c, ErrDimensionMismatch)
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// NewFromColumns builds a matrix by concatenating equally sized column
// vectors, mirroring the paper's [x1, x2, ..., xw] notation.
func NewFromColumns(cols ...[]float64) (*Matrix, error) {
	if len(cols) == 0 {
		return New(0, 0), nil
	}
	r := len(cols[0])
	m := New(r, len(cols))
	for j, c := range cols {
		if len(c) != r {
			return nil, fmt.Errorf("mat: column %d has length %d, want %d: %w",
				j, len(c), r, ErrDimensionMismatch)
		}
		for i, v := range c {
			m.data[i*m.cols+j] = v
		}
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Ones returns an rows-by-cols matrix filled with 1.
func Ones(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns the shape of the matrix as (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// RawData exposes the row-major backing slice.  Mutating the returned slice
// mutates the matrix; callers that need isolation should Clone first.
func (m *Matrix) RawData() []float64 { return m.data }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("mat: cannot multiply %dx%d by %dx%d: %w",
			m.rows, m.cols, other.rows, other.cols, ErrDimensionMismatch)
	}
	out := New(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			ok := other.data[k*other.cols : (k+1)*other.cols]
			for j, ov := range ok {
				oi[j] += mv * ov
			}
		}
	}
	return out, nil
}

// HConcat returns the horizontal (column-wise) concatenation [m, other],
// mirroring the paper's [X, Y] notation.
func (m *Matrix) HConcat(other *Matrix) (*Matrix, error) {
	if m.rows != other.rows {
		return nil, fmt.Errorf("mat: cannot concatenate %dx%d and %dx%d: %w",
			m.rows, m.cols, other.rows, other.cols, ErrDimensionMismatch)
	}
	out := New(m.rows, m.cols+other.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:], m.data[i*m.cols:(i+1)*m.cols])
		copy(out.data[i*out.cols+m.cols:], other.data[i*other.cols:(i+1)*other.cols])
	}
	return out, nil
}

// Slice returns a copy of the sub-matrix with rows [r0,r1) and columns [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) (*Matrix, error) {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 > r1 || c0 > c1 {
		return nil, fmt.Errorf("mat: invalid slice [%d:%d, %d:%d] of %dx%d: %w",
			r0, r1, c0, c1, m.rows, m.cols, ErrDimensionMismatch)
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out, nil
}

// MaxAbs returns the maximum absolute value of any element, or 0 for an
// empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// ColumnMeans returns the mean of each column.
func (m *Matrix) ColumnMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.rows)
	}
	return means
}

// CenterColumns returns a new matrix with the column mean subtracted from
// every column (the "zero-mean counterpart" used by the LSFD metric).
func (m *Matrix) CenterColumns() *Matrix {
	means := m.ColumnMeans()
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] -= means[j]
		}
	}
	return out
}

// String renders the matrix for debugging; large matrices are abbreviated.
func (m *Matrix) String() string {
	const maxRows, maxCols = 8, 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[\n", m.rows, m.cols)
	rows := m.rows
	if rows > maxRows {
		rows = maxRows
	}
	cols := m.cols
	if cols > maxCols {
		cols = maxCols
	}
	for i := 0; i < rows; i++ {
		b.WriteString("  ")
		for j := 0; j < cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
		if cols < m.cols {
			b.WriteString("...")
		}
		b.WriteString("\n")
	}
	if rows < m.rows {
		b.WriteString("  ...\n")
	}
	b.WriteString("]")
	return b.String()
}
