package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecCloneIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestVecZeroFill(t *testing.T) {
	v := Vec{2.5, -1, 3, 7}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatalf("zero failed: %v", v)
		}
	}
}

func TestAddScaled(t *testing.T) {
	v := Vec{1, 2, 3}
	if err := v.AddScaled(2, Vec{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	want := Vec{3, 4, 5}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("got %v", v)
		}
	}
	if err := v.AddScaled(1, Vec{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestDotNormSub(t *testing.T) {
	d, err := Dot(Vec{1, 2, 3}, Vec{4, 5, 6})
	if err != nil || d != 32 {
		t.Fatalf("dot %v err %v", d, err)
	}
	if _, err := Dot(Vec{1}, Vec{1, 2}); err == nil {
		t.Fatal("expected mismatch error")
	}
	v := Vec{3, 4}
	if v.Norm2() != 5 {
		t.Fatalf("norm %v", v.Norm2())
	}
	if v.SqNorm() != 25 {
		t.Fatalf("sqnorm %v", v.SqNorm())
	}
	s, err := Sub(Vec{5, 5}, Vec{2, 3})
	if err != nil || s[0] != 3 || s[1] != 2 {
		t.Fatalf("sub %v err %v", s, err)
	}
	a, err := Add(Vec{1, 2}, Vec{3, 4})
	if err != nil || a[0] != 4 || a[1] != 6 {
		t.Fatalf("add %v err %v", a, err)
	}
}

func TestCopyFrom(t *testing.T) {
	v := NewVec(3)
	if err := v.CopyFrom(Vec{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v[2] != 3 {
		t.Fatalf("copy failed: %v", v)
	}
	if err := v.CopyFrom(Vec{1}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestMaxAbsIsFinite(t *testing.T) {
	v := Vec{-7, 3}
	if !v.IsFinite() {
		t.Fatal("finite vector misreported")
	}
	if (Vec{1, math.NaN()}).IsFinite() {
		t.Fatal("NaN not caught")
	}
	if (Vec{math.Inf(1)}).IsFinite() {
		t.Fatal("Inf not caught")
	}
}

func TestMatBasics(t *testing.T) {
	m, err := NewMat(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("shape %dx%d over %d elements", m.Rows, m.Cols, len(m.Data))
	}
	m.Data[1*3+2] = 5
	if got := m.Row(1); got[2] != 5 {
		t.Fatalf("row view %v", got)
	}
	if _, err := NewMat(-1, 2); err == nil {
		t.Fatal("expected error for negative dims")
	}
}

func TestMatMulVec(t *testing.T) {
	m, _ := NewMat(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	out := NewVec(2)
	if err := m.MulVec(Vec{1, 1}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("mulvec %v", out)
	}
	if err := m.MulVec(Vec{1}, out); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSoftmaxLogSumExp(t *testing.T) {
	v := Vec{1000, 1000, 1000, -1, 0, 1}
	lse := NewVec(2)
	if err := LogSumExp(v.Clone(), 2, 3, lse); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1000 + math.Log(3), math.Log(math.Exp(-1) + 1 + math.E)} {
		if math.Abs(lse[i]-want) > 1e-9 {
			t.Fatalf("lse[%d] %v want %v", i, lse[i], want)
		}
	}
	if err := SoftmaxRows(v, 2, 3); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range v[:3] {
		if math.Abs(x-1.0/3) > 1e-9 {
			t.Fatalf("softmax %v", v)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum %v", sum)
	}
	if err := LogSumExp(NewVec(3), 1, 0, NewVec(1)); err == nil {
		t.Fatal("expected shape error")
	}
	if err := LogSumExp(NewVec(3), 1, 3, NewVec(2)); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := LogSumExp(NewVec(4), 1, 3, NewVec(1)); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestArgMaxClamp(t *testing.T) {
	i, err := ArgMax(Vec{1, 5, 5, 2})
	if err != nil || i != 1 {
		t.Fatalf("argmax %d err %v", i, err)
	}
	if _, err := ArgMax(nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestQuickSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, x := range []float64{a, b, c} {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 500 {
				return true // skip degenerate quick inputs
			}
		}
		v := Vec{a, b, c}
		if err := SoftmaxRows(v, 1, 3); err != nil {
			return false
		}
		var sum float64
		for _, x := range v {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
