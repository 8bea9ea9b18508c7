package data

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/testutil"
)

// digestCase is one generator configuration the golden pins, scaled the way
// experiment.generateData scales the paper's three setups to n clients.
type digestCase struct {
	name string
	seed uint64
	gen  func(r *stats.RNG) (*Federated, error)
}

func digestCases() []digestCase {
	var cases []digestCase
	for _, n := range []int{2, 7, 40, 64} {
		scale := float64(n) / 40
		syn := DefaultSyntheticConfig()
		syn.NumClients, syn.TotalSamples = n, int(22377*scale)
		mnist := MNISTLikeConfig()
		mnist.NumClients, mnist.TotalSamples, mnist.TestSamples = n, int(14463*scale), 100*n/2
		emnist := EMNISTLikeConfig()
		emnist.NumClients, emnist.TotalSamples, emnist.TestSamples = n, int(35155*scale), 100*n/2
		for _, seed := range []uint64{1, 2, 3} {
			cases = append(cases,
				digestCase{fmt.Sprintf("synthetic clients=%d seed=%d", n, seed), seed, func(r *stats.RNG) (*Federated, error) {
					return GenerateSynthetic(r, syn)
				}},
				digestCase{fmt.Sprintf("mnist-like clients=%d seed=%d", n, seed), seed, func(r *stats.RNG) (*Federated, error) {
					return GenerateImageLike(r, mnist)
				}},
				digestCase{fmt.Sprintf("emnist-like clients=%d seed=%d", n, seed), seed, func(r *stats.RNG) (*Federated, error) {
					return GenerateImageLike(r, emnist)
				}},
			)
		}
	}
	return cases
}

// hashDataset feeds every sample's length, feature bits and label into h
// (FNV-1a over little-endian words, as the benchmark's model hash).
func hashDataset(h hash.Hash64, d *Dataset) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(d.Len()))
	for i, x := range d.X {
		for _, v := range x {
			put(math.Float64bits(v))
		}
		put(uint64(d.Y[i]))
	}
}

// dataDigests generates every case and returns one line per case: digests of
// the client shards, the pooled train set, the test set, and the parent
// stream's cursor after generation (which pins how many words it gave up).
func dataDigests(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range digestCases() {
		r := stats.NewRNG(c.seed)
		fed, err := c.gen(r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		clients := fnv.New64a()
		for _, ds := range fed.Clients {
			hashDataset(clients, ds)
		}
		train, test := fnv.New64a(), fnv.New64a()
		hashDataset(train, fed.Train)
		hashDataset(test, fed.Test)
		fmt.Fprintf(&sb, "%s clients=%016x train=%016x test=%016x rng=%016x\n",
			c.name, clients.Sum64(), train.Sum64(), test.Sum64(), r.Uint64())
	}
	return sb.String()
}

// TestGeneratedDataMatchesGolden pins every bit the generators produce for
// the three setups' configurations, and checks that the bits do not depend
// on how many workers fill the shards.
func TestGeneratedDataMatchesGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := dataDigests(t)
		if first == "" {
			first = got
			testutil.Golden(t, "data_digests.golden", []byte(got), *testutil.Update)
			continue
		}
		if got != first {
			t.Fatalf("GOMAXPROCS=%d generates different data than GOMAXPROCS=1", procs)
		}
	}
}

// TestGeneratedRowsAreCapped checks the storage layout the generators share:
// every row has capacity Dim, so appending to one row cannot overwrite the
// next row in the same block.
func TestGeneratedRowsAreCapped(t *testing.T) {
	syn := DefaultSyntheticConfig()
	syn.NumClients, syn.TotalSamples = 5, 400
	img := MNISTLikeConfig()
	img.NumClients, img.TotalSamples, img.TestSamples = 5, 400, 50
	synFed, err := GenerateSynthetic(stats.NewRNG(1), syn)
	if err != nil {
		t.Fatal(err)
	}
	imgFed, err := GenerateImageLike(stats.NewRNG(1), img)
	if err != nil {
		t.Fatal(err)
	}
	for _, fed := range []*Federated{synFed, imgFed} {
		for _, ds := range append(fed.Clients, fed.Test) {
			for i, x := range ds.X {
				if cap(x) != ds.Dim {
					t.Fatalf("row %d has capacity %d, want %d", i, cap(x), ds.Dim)
				}
			}
			next := ds.X[1][0]
			_ = append(ds.X[0], 42)
			if ds.X[1][0] != next {
				t.Fatal("appending to a row overwrote the next row")
			}
		}
	}
	if empty := newDataset(0, 3, 2); empty.X != nil || empty.Y != nil {
		t.Fatalf("empty dataset has X %v, Y %v, want nil", empty.X, empty.Y)
	}
}

// BenchmarkGenerate times each setup's generator at the paper's 40 clients
// and at the 64 of the session-durable world, seed 1, on GOMAXPROCS
// workers; ns/feature is per generated feature, train and test.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range digestCases() {
		if c.seed != 1 || !strings.Contains(c.name, "clients=40 ") && !strings.Contains(c.name, "clients=64 ") {
			continue
		}
		b.Run(strings.ReplaceAll(strings.TrimSuffix(c.name, " seed=1"), " ", "/"), func(b *testing.B) {
			features := 0
			for i := 0; i < b.N; i++ {
				fed, err := c.gen(stats.NewRNG(c.seed))
				if err != nil {
					b.Fatal(err)
				}
				features = (fed.Train.Len() + fed.Test.Len()) * fed.Train.Dim
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(features), "ns/feature")
		})
	}
}
