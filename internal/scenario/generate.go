package scenario

import (
	"fmt"
	"hash/fnv"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
)

// GenOptions bounds the worlds Generate draws. The zero value asks for the
// defaults.
type GenOptions struct {
	// MaxClients caps the fleet size (default 10, floor 2).
	MaxClients int
	// MaxRounds caps the training horizon (default 16, floor 4).
	MaxRounds int
	// Schemes is the pricing-scheme pool drawn from (default: the three
	// built-ins). Any name registered via game.RegisterScheme is usable.
	Schemes []string
	// NoMembership suppresses join/leave faults — for metamorphic relations
	// that need a fixed roster.
	NoMembership bool
	// NoAdversaries suppresses misreport/deviate/poison faults — for
	// relations that compare against an honest control.
	NoAdversaries bool
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MaxClients < 2 {
		o.MaxClients = 10
	}
	if o.MaxRounds < 4 {
		o.MaxRounds = 16
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []string{game.SchemeNameProposed, game.SchemeNameWeighted, game.SchemeNameUniform}
	}
	return o
}

// byteStream turns an arbitrary seed byte slice into a deterministic decision
// stream: the seed is consumed eight bytes at a time (zero-padded past its
// end) and folded through a splitmix64 chain. Early seed bytes steer early
// structural decisions, so a fuzzer's byte-level mutations translate into
// meaningfully different — but always valid — worlds.
type byteStream struct {
	seed  []byte
	pos   int
	state uint64
}

func newByteStream(seed []byte) *byteStream {
	return &byteStream{seed: seed, state: 0x6C62272E07BB0142}
}

// next folds the next eight seed bytes into the chain and returns the mixed
// state.
func (g *byteStream) next() uint64 {
	var word uint64
	for i := 0; i < 8; i++ {
		var b byte
		if g.pos < len(g.seed) {
			b = g.seed[g.pos]
			g.pos++
		}
		word = word<<8 | uint64(b)
	}
	g.state = splitmix(g.state ^ word)
	return g.state
}

// intn draws an integer in [0, n).
func (g *byteStream) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(g.next() % uint64(n))
}

// rangeInt draws an integer in [lo, hi] inclusive.
func (g *byteStream) rangeInt(lo, hi int) int {
	return lo + g.intn(hi-lo+1)
}

// f64 draws a float in [lo, hi).
func (g *byteStream) f64(lo, hi float64) float64 {
	u := g.next() >> 11 // 53 bits
	return lo + (hi-lo)*(float64(u)/(1<<53))
}

// coin draws a Bernoulli(p) decision.
func (g *byteStream) coin(p float64) bool {
	return g.f64(0, 1) < p
}

// Generate derives a valid Scenario from an arbitrary byte seed with the
// default bounds — the property-based entry point: for every seed, including
// adversarial fuzzer-mutated ones, the result passes Validate and runs.
func Generate(seed []byte) Scenario {
	return GenerateWith(seed, GenOptions{})
}

// GenerateWith is Generate under explicit bounds. The same seed and options
// always produce the same Scenario, so generated worlds are as replayable as
// library ones: record the seed, regenerate the world.
func GenerateWith(seed []byte, opts GenOptions) Scenario {
	opts = opts.withDefaults()
	g := newByteStream(seed)

	digest := fnv.New64a()
	_, _ = digest.Write(seed)
	clients := g.rangeInt(2, opts.MaxClients)
	rounds := g.rangeInt(4, opts.MaxRounds)
	setups := []experiment.SetupID{experiment.Setup1, experiment.Setup2, experiment.Setup3}

	sc := Scenario{
		Name:         fmt.Sprintf("gen-%016x", digest.Sum64()),
		Description:  "property-generated world",
		Setup:        setups[g.intn(len(setups))],
		Scheme:       opts.Schemes[g.intn(len(opts.Schemes))],
		Clients:      clients,
		TotalSamples: clients * g.rangeInt(60, 120),
		Rounds:       rounds,
		LocalSteps:   g.rangeInt(1, 3),
		BatchSize:    g.rangeInt(4, 16),
		EvalEvery:    rounds, // evaluate once at the end: replays stay cheap
		Calibration:  1,
		Seed:         g.next(),
		CostScale:    g.f64(0.5, 2),
		CostSpread:   g.f64(0, 1.2),
		ValueScale:   g.f64(0.5, 2),
		BudgetScale:  g.f64(0.4, 2),
	}
	if sc.Setup != experiment.Setup1 {
		sc.MaxClientClasses = g.intn(4) // 0 keeps the setup default
	}

	// Fault schedule. Membership roles are drawn first and exclusively — a
	// joiner or leaver takes no other fault, and at least two clients always
	// stay plain members so the roster can never empty (the engine's plan
	// validation would reject it otherwise). Every remaining client draws
	// independent fault coins.
	churnBudget := clients - 2
	canChurn := !opts.NoMembership && clients >= 3 && rounds >= 3
	for n := 0; n < clients; n++ {
		if canChurn && churnBudget > 0 && g.coin(0.24) {
			churnBudget--
			kind := FaultJoin
			if g.coin(0.5) {
				kind = FaultLeave
			}
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: kind, Round: g.rangeInt(1, rounds-1),
			})
			continue
		}
		if g.coin(0.25) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultStraggler, DelayFactor: g.f64(1.5, 8),
			})
		}
		if g.coin(0.15) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultDropout, Round: g.rangeInt(1, rounds-1),
			})
		}
		if g.coin(0.2) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultFlaky, Availability: g.f64(0.3, 0.9),
			})
		}
		if opts.NoAdversaries {
			continue
		}
		if g.coin(0.15) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultMisreport, Factor: g.f64(0.3, 3.5),
			})
		}
		if g.coin(0.15) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultDeviate, Factor: g.f64(0.2, 1.4),
			})
		}
		if g.coin(0.1) {
			sc.Faults = append(sc.Faults, ClientFault{
				Client: n, Kind: FaultPoison, Factor: g.f64(-4, 2), Round: g.intn(rounds),
			})
		}
	}
	return sc
}

// splitmix is one splitmix64 scramble step — the same finalizer the stats
// package seeds with, reused to fold seed words into the generator state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
