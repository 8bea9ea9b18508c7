package stats

import "testing"

func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 8, 200} {
			visits := make([]int, n)
			ParallelFor(n, workers, func(i int) { visits[i]++ })
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}
