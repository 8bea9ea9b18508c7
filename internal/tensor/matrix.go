package tensor

import "errors"

// Mat is a dense row-major matrix with Rows x Cols elements stored in Data.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero matrix of the given shape.
func NewMat(rows, cols int) (*Mat, error) {
	if rows < 0 || cols < 0 {
		return nil, errors.New("tensor: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// At returns the element at (i, j). Callers are responsible for bounds; the
// slice access panics on violation as with any Go indexing.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Mat) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vec sharing the underlying storage.
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec computes out = M*x. out must have length Rows and x length Cols.
func (m *Mat) MulVec(x, out Vec) error {
	if len(x) != m.Cols || len(out) != m.Rows {
		return errors.New("tensor: shape mismatch in MulVec")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, rj := range row {
			s += float64(rj * x[j])
		}
		out[i] = s
	}
	return nil
}

// AddOuterScaled accumulates M += s * a * bᵀ; a must have length Rows and b
// length Cols. This is the gradient accumulation kernel for the softmax
// weight matrix.
func (m *Mat) AddOuterScaled(s float64, a, b Vec) error {
	if len(a) != m.Rows || len(b) != m.Cols {
		return errors.New("tensor: shape mismatch in AddOuterScaled")
	}
	for i := 0; i < m.Rows; i++ {
		sa := s * a[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += sa * b[j]
		}
	}
	return nil
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	data := make([]float64, len(m.Data))
	copy(data, m.Data)
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: data}
}
