package stats

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for every i in [0, n) across at most workers
// goroutines (1 means inline). fn must touch only index-i state; callers
// reduce results in index order to stay bit-identical for any worker count.
func ParallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
