package testutil

// Carved is a slice cut out of a larger backing array whose other elements
// all hold a guard value: a kernel that stores past its slice, or a test that
// carves wrongly, changes one of them.
type Carved[T comparable] struct {
	Backing []T
	Lo, N   int
	Guard   T
}

// Carve returns n elements starting at an odd index of their backing array,
// so that they are 8- but not 32-byte aligned within the allocation, with
// guards on both sides — or, with toEnd, ending exactly where the backing
// array does. The guard must compare equal to itself, so not a NaN.
func Carve[T comparable](n int, toEnd bool, guard T) ([]T, Carved[T]) {
	c := Carved[T]{Backing: make([]T, n+6), Lo: 3, N: n, Guard: guard}
	if toEnd {
		c.Backing, c.Lo = c.Backing[:n+1], 1
	}
	for i := range c.Backing {
		c.Backing[i] = guard
	}
	return c.Backing[c.Lo : c.Lo+n : c.Lo+n], c
}

// Intact reports whether every element outside the carved slice still holds
// the guard.
func (c Carved[T]) Intact() bool {
	for i, v := range c.Backing {
		if (i < c.Lo || i >= c.Lo+c.N) && v != c.Guard {
			return false
		}
	}
	return true
}
