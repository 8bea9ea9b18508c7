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
