package experiment

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/testutil"
)

// fleetSetupDigests builds Setup 1 at fleet scale — 20 000 clients on 40
// shards, the shape of the fleet benchmarks — for seeds 1 and 2, and writes
// one line per seed with FNV-1a digests of: the game's A, G, C and V bits;
// the timing model's per-client compute and communication durations; every
// label of the shards and of the pooled test set; and the cursor table a
// backend opens with (engine's initialCursors, read back through
// ClientCursors).
func fleetSetupDigests(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, seed := range []uint64{1, 2} {
		opts := Options{
			NumClients: 20000, FleetShards: 40, Rounds: 6, LocalSteps: 1,
			BatchSize: 8, EvalEvery: 6, Calibration: 1, Seed: seed, Runs: 1,
		}
		env, err := BuildSetup(context.Background(), Setup1, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&sb, "setup1 clients=%d shards=%d seed=%d", opts.NumClients, opts.FleetShards, seed)
		p := env.Params
		for _, f := range []struct {
			name string
			xs   []float64
		}{{"A", p.A}, {"G", p.G}, {"C", p.C}, {"V", p.V}} {
			d := newWordDigest()
			for _, x := range f.xs {
				d.put(math.Float64bits(x))
			}
			fmt.Fprintf(&sb, " %s=%016x", f.name, d.sum())
		}

		d := newWordDigest()
		for _, c := range env.Timing.Clients {
			d.put(uint64(c.ComputePerStep))
			d.put(uint64(c.CommPerRound))
		}
		fmt.Fprintf(&sb, " timing=%016x", d.sum())

		d = newWordDigest()
		for _, shard := range env.Fed.Clients[:opts.FleetShards] {
			for _, y := range shard.Y {
				d.put(uint64(y))
			}
		}
		for _, y := range env.Fed.Test.Y {
			d.put(uint64(y))
		}
		fmt.Fprintf(&sb, " labels=%016x", d.sum())

		b := engine.NewLocalBackend(engine.LocalOptions{})
		if err := b.Open(context.Background(), &engine.Spec{Fed: env.Fed, Seed: seed ^ 0xDEADBEEF}); err != nil {
			t.Fatal(err)
		}
		cursors := make([]engine.ClientCursor, opts.NumClients)
		if err := b.ClientCursors(cursors); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		d = newWordDigest()
		for _, c := range cursors {
			for _, w := range c.RNG {
				d.put(w)
			}
		}
		fmt.Fprintf(&sb, " cursors=%016x\n", d.sum())
	}
	return sb.String()
}

// wordDigest is FNV-1a over little-endian 64-bit words.
type wordDigest struct{ h hash.Hash64 }

func newWordDigest() wordDigest { return wordDigest{fnv.New64a()} }

func (d wordDigest) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d wordDigest) sum() uint64 { return d.h.Sum64() }

// TestFleetSetupMatchesGolden pins every bit fleet set-up draws at 20 000
// clients: the economics, the timing model, the synthetic labels and the
// initial cursor table.
func TestFleetSetupMatchesGolden(t *testing.T) {
	testutil.Golden(t, "fleet_setup_digests.golden", []byte(fleetSetupDigests(t)), *testutil.Update)
}
