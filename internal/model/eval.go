package model

import (
	"context"

	"unbiasedfl/internal/stats"
)

// evalChunk is the shard size for parallel full-dataset evaluation. It is a
// fixed constant (rather than derived from the worker count) so the partial
// sums always reduce in the same chunk order: Loss and Accuracy return
// bit-identical results on one core and on many.
const evalChunk = 512

// chunkSum splits [0, n) into evalChunk-sized shards, evaluates fn on each
// across GOMAXPROCS workers (stats.ParallelFor) and reduces the partial sums
// in ascending chunk order. fn receives a worker-private Scratch it may use
// for its buffers.
func chunkSum(n int, fn func(lo, hi int, s *Scratch) (float64, error)) (float64, error) {
	partials := make([]float64, (n+evalChunk-1)/evalChunk)
	err := stats.ParallelFor(context.Background(), len(partials), 0, func(_ context.Context, s *Scratch, c int) error {
		lo := c * evalChunk
		part, err := fn(lo, min(lo+evalChunk, n), s)
		partials[c] = part
		return err
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, part := range partials {
		total += part
	}
	return total, nil
}
