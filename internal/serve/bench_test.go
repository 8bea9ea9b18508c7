package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"unbiasedfl/internal/game"
)

// costSlot is the fixed-width first cost of the benchmark-shaped bodies;
// stampBody overwrites it in place so that a cold request is a game never
// seen before.
const costSlot = "40.00000000"

// quoteBody returns a QuoteRequest body shaped like the serving
// benchmark's: heterogeneous costs, valuations and gradient bounds, data
// weights summing to one, a budget a third of full participation's cost,
// and the first cost in a fixed-width slot.
func quoteBody(tb testing.TB, clients int, seed uint64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x900D5EED))
	pj := ParamsJSON{
		A: make([]float64, clients), G: make([]float64, clients),
		C: make([]float64, clients), V: make([]float64, clients),
		Alpha: 1, Beta: 1, R: 100, QMax: 1,
	}
	var asum float64
	for j := 0; j < clients; j++ {
		pj.A[j] = 0.5 + rng.Float64()
		asum += pj.A[j]
		pj.G[j] = 0.5 + rng.Float64()
		pj.C[j] = 41 + 16*rng.Float64()
		pj.V[j] = 3000 + 2000*rng.Float64()
		pj.B += pj.C[j] / 3
	}
	pj.C[0] = 40
	for j := range pj.A {
		pj.A[j] /= asum
	}
	b, err := json.Marshal(QuoteRequest{Scheme: game.SchemeNameProposed, Params: pj})
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Replace(b, []byte(`"c":[40,`), []byte(`"c":[`+costSlot+`,`), 1)
}

// stampBody writes k into body's cost slot.
func stampBody(body []byte, k uint64) {
	at := bytes.Index(body, []byte(`"c":[`)) + len(`"c":[`)
	slot := body[at : at+len(costSlot)]
	for i := len(slot) - 1; i > len("40."); i-- {
		slot[i] = byte('0' + k%10)
		k /= 10
	}
}

// BenchmarkQuoteHandler times POST /v1/quote through Server.Handler
// without a socket: hot is a primed 12-client game (a cache hit), cold a
// never-seen 256-client game per request against a full cache, each
// evicting the oldest entry — the two serving workloads of benchmark/.
func BenchmarkQuoteHandler(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
		cold    bool
	}{{"hot", 12, false}, {"cold", 256, true}} {
		b.Run(bc.name, func(b *testing.B) {
			const cacheSize = 256
			s := New(Config{CacheSize: cacheSize})
			h := s.Handler()
			body := quoteBody(b, bc.clients, 1)
			var stamp uint64
			quote := func() {
				if bc.cold {
					stamp++
					stampBody(body, stamp)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/quote", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			warm := 1
			if bc.cold {
				warm = cacheSize
			}
			for i := 0; i < warm; i++ {
				quote()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quote()
			}
		})
	}
}

// BenchmarkNumber times (*codec).number on 17-digit shortest-form doubles
// of a quote body's magnitudes, cycling through 1024 of them so that the
// branch predictor cannot learn one; ns/op is per number.
func BenchmarkNumber(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0x900D5EED))
	var nums [][]byte
	for len(nums) < 1024 {
		s := appendFloat(nil, (0.5+rng.Float64())*math.Pow(10, float64(rng.IntN(5)-1)))
		if len(bytes.TrimLeft(bytes.ReplaceAll(s, []byte("."), nil), "0")) == 17 {
			nums = append(nums, append(s, ','))
		}
	}
	c := new(codec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.buf, c.pos = nums[i%len(nums)], 0
		if _, ok := c.number(); !ok {
			b.Fatalf("number(%q) refused", c.buf)
		}
	}
}
