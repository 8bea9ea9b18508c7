package game

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"unbiasedfl/internal/testutil"
)

// msearchDigest hashes every output bit of an M-search solve — Q, P, Spent,
// ServerObj and BudgetTight — with FNV-1a over little-endian words, or
// names the error a failed solve returned.
func msearchDigest(eq *Equilibrium, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range eq.Q {
		put(math.Float64bits(eq.Q[i]))
		put(math.Float64bits(eq.P[i]))
	}
	put(math.Float64bits(eq.Spent))
	put(math.Float64bits(eq.ServerObj))
	if eq.BudgetTight {
		put(1)
	} else {
		put(0)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMSearchDigestsMatchGolden pins every output bit of SolveMSearch on 200
// games — Setup-1-shaped ones (testParams) across budgets from binding to
// slack, and engineGame's random ones — solved cold and by one Solver warm
// across the whole list. Warm and cold runs move together when the shared
// arithmetic changes, so TestMSearchEngineMatchesCold cannot see such a
// change; this golden does.
func TestMSearchDigestsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("m-search digests are slow")
	}
	type namedGame struct {
		name string
		p    *Params
	}
	var games []namedGame
	budgets := []float64{20, 60, 150, 200, 400, 3000}
	meanVs := []float64{500, 4000, 12000}
	for i := 0; i < 100; i++ {
		seed := uint64(1000 + i)
		n := 2 + i%23
		budget, meanV := budgets[i%len(budgets)], meanVs[i%len(meanVs)]
		games = append(games, namedGame{
			fmt.Sprintf("setup1 seed=%d n=%d B=%v v=%v", seed, n, budget, meanV),
			testParams(t, seed, n, 50, meanV, budget),
		})
	}
	for i := 0; i < 100; i++ {
		seed := uint64(2000 + i)
		n := 1 + i%29
		games = append(games, namedGame{
			fmt.Sprintf("random seed=%d n=%d", seed, n),
			engineGame(t, seed, n),
		})
	}

	var sb strings.Builder
	warm := NewSolver()
	opts := DefaultMSearchOptions()
	for _, g := range games {
		cold := msearchDigest(g.p.SolveMSearch(opts))
		w := msearchDigest(warm.SolveMSearch(g.p, opts))
		fmt.Fprintf(&sb, "%s: cold %s warm %s\n", g.name, cold, w)
	}
	testutil.Golden(t, "msearch_digests.golden", []byte(sb.String()), *testutil.Update)
}
