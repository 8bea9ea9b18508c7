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

// solveDigest hashes every output bit of a KKT solve — Q, P, Lambda, Spent,
// ServerObj and BudgetTight — with FNV-1a over little-endian words, or names
// the error a failed solve returned.
func solveDigest(eq *Equilibrium, err error) string {
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
	put(math.Float64bits(eq.Lambda))
	put(math.Float64bits(eq.Spent))
	put(math.Float64bits(eq.ServerObj))
	if eq.BudgetTight {
		put(1)
	} else {
		put(0)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFleetSolveDigestsMatchGolden pins every output bit of SolveInto on
// fleet-size games: sizes just below, at and above 16 384 clients (where the
// spend probe fans out over index ranges of 8 192), one whose last range
// holds a single client, a 10^5-client game of the Table-I shape
// (benchGame), and one whose budget is slack. Each is solved cold and by one
// Solver warm across the whole list. Run it at -cpu 1,2,8: the bits must not
// depend on the number of Ps.
func TestFleetSolveDigestsMatchGolden(t *testing.T) {
	type namedGame struct {
		name string
		p    *Params
	}
	slack := engineGame(t, 7, 20000)
	slack.B = 1e9
	games := []namedGame{
		{"random seed=1 n=12", engineGame(t, 1, 12)},
		{"random seed=2 n=16383", engineGame(t, 2, 16383)},
		{"random seed=3 n=16384", engineGame(t, 3, 16384)},
		{"random seed=4 n=24577", engineGame(t, 4, 24577)},
		{"quote-cold seed=5 n=40000", quoteColdGame(5, 40000)},
		{"lognormal seed=6 n=30000", lognormalGame(6, 30000)},
		{"slack seed=7 n=20000 B=1e9", slack},
		{"table-1 n=100000", benchGame(t, 100000)},
	}

	var sb strings.Builder
	warm := NewSolver()
	for _, g := range games {
		cold := solveDigest(g.p.SolveKKT())
		var eq Equilibrium
		w := solveDigest(&eq, warm.SolveInto(g.p, &eq))
		fmt.Fprintf(&sb, "%s: tight %v cold %s warm %s\n", g.name, eq.BudgetTight, cold, w)
	}
	testutil.Golden(t, "fleet_solve_digests.golden", []byte(sb.String()), *testutil.Update)
}
