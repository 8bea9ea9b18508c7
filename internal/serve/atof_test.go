package serve

import (
	"math/big"
	"testing"
)

// TestPow10TableMatchesBig recomputes every row of pow10Table with
// math/big — 10^e's mantissa normalised to 128 bits and truncated — and
// checks that eiselLemire64's slope gives each row's binary exponent,
// ⌊log2 10^e⌋.
func TestPow10TableMatchesBig(t *testing.T) {
	if len(pow10Table) != pow10Max-pow10Min+1 {
		t.Fatalf("pow10Table has %d rows, want %d", len(pow10Table), pow10Max-pow10Min+1)
	}
	mask := new(big.Int).SetUint64(^uint64(0))
	for e := pow10Min; e <= pow10Max; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m, log2 := p, p.BitLen()-1
		if e < 0 {
			// ⌊2^k / 10^-e⌋ for k far enough up to leave more than 128
			// bits; truncating it again below floors the exact quotient.
			m = new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+128))
			m.Quo(m, p)
			log2 = -p.BitLen()
		}
		if n := m.BitLen(); n > 128 {
			m.Rsh(m, uint(n-128))
		} else {
			m.Lsh(m, uint(128-n))
		}
		want := [2]uint64{new(big.Int).And(m, mask).Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
		if got := pow10Table[e-pow10Min]; got != want {
			t.Errorf("1e%d: row {%#016x, %#016x}, math/big {%#016x, %#016x}", e, got[0], got[1], want[0], want[1])
		}
		if slope := 217706 * e >> 16; slope != log2 {
			t.Errorf("1e%d: slope gives binary exponent %d, want %d", e, slope, log2)
		}
	}
}
