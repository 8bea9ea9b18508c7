package game

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// PricingScheme is an open pricing mechanism for the Stage-I server
// decision. The paper's three schemes (proposed, weighted, uniform) are
// registered at init time; external packages can plug in new mechanisms via
// RegisterScheme without modifying this package — Params.OutcomeFor turns a
// posted price vector into a fully-evaluated Outcome (best responses,
// spend, Theorem-1 objective).
type PricingScheme interface {
	// Name identifies the scheme in registries, reports, and events. It
	// must be non-empty and unique among registered schemes.
	Name() string
	// Price solves the Stage-I decision on the given game and returns the
	// priced market state.
	Price(p *Params) (*Outcome, error)
}

// Canonical names of the paper's built-in schemes.
const (
	// SchemeNameProposed is the paper's customized equilibrium pricing.
	SchemeNameProposed = "proposed"
	// SchemeNameWeighted pays proportionally to data size.
	SchemeNameWeighted = "weighted"
	// SchemeNameUniform pays every client the same unit price.
	SchemeNameUniform = "uniform"
)

// schemeRegistry holds every registered pricing scheme in registration
// order (built-ins first), guarded for concurrent use.
var schemeRegistry = struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]PricingScheme
}{byName: map[string]PricingScheme{}}

// RegisterScheme adds a pricing scheme to the global registry. Registered
// schemes participate in experiment.Compare and scheme sweeps alongside the
// paper's built-ins. It errors on a nil scheme, an empty name, or a name
// already taken.
func RegisterScheme(s PricingScheme) error {
	if s == nil {
		return errors.New("game: nil pricing scheme")
	}
	name := s.Name()
	if name == "" {
		return errors.New("game: pricing scheme with empty name")
	}
	schemeRegistry.mu.Lock()
	defer schemeRegistry.mu.Unlock()
	if _, dup := schemeRegistry.byName[name]; dup {
		return fmt.Errorf("game: pricing scheme %q already registered", name)
	}
	schemeRegistry.byName[name] = s
	schemeRegistry.order = append(schemeRegistry.order, name)
	return nil
}

// UnregisterScheme removes a scheme by name and reports whether it was
// present. The paper's built-ins can be removed too (e.g. to benchmark a
// reduced trio), though most callers never should.
func UnregisterScheme(name string) bool {
	schemeRegistry.mu.Lock()
	defer schemeRegistry.mu.Unlock()
	if _, ok := schemeRegistry.byName[name]; !ok {
		return false
	}
	delete(schemeRegistry.byName, name)
	for i, n := range schemeRegistry.order {
		if n == name {
			schemeRegistry.order = append(schemeRegistry.order[:i], schemeRegistry.order[i+1:]...)
			break
		}
	}
	return true
}

// SchemeByName looks up a registered pricing scheme.
func SchemeByName(name string) (PricingScheme, error) {
	schemeRegistry.mu.RLock()
	defer schemeRegistry.mu.RUnlock()
	s, ok := schemeRegistry.byName[name]
	if !ok {
		known := append([]string(nil), schemeRegistry.order...)
		sort.Strings(known)
		return nil, fmt.Errorf("game: unknown pricing scheme %q (registered: %v)", name, known)
	}
	return s, nil
}

// SchemeNames returns every registered scheme name in registration order,
// built-ins first. The order is the canonical iteration order of
// experiment.Compare, so it is deterministic for a fixed set of
// registrations.
func SchemeNames() []string {
	schemeRegistry.mu.RLock()
	defer schemeRegistry.mu.RUnlock()
	return append([]string(nil), schemeRegistry.order...)
}

// builtinScheme adapts the paper's three solvers to the registry.
type builtinScheme struct {
	name  string
	solve func(*Params) (*Outcome, error)
}

func (b builtinScheme) Name() string { return b.name }

func (b builtinScheme) Price(p *Params) (*Outcome, error) {
	out, err := b.solve(p)
	if err != nil {
		return nil, err
	}
	out.Name = b.name
	return out, nil
}

func init() {
	// Registration order fixes the canonical comparison order used by the
	// paper's Fig. 4: proposed, weighted, uniform.
	for _, b := range []builtinScheme{
		{SchemeNameProposed, (*Params).solveProposed},
		{SchemeNameWeighted, (*Params).solveWeightedPricing},
		{SchemeNameUniform, (*Params).solveUniformPricing},
	} {
		if err := RegisterScheme(b); err != nil {
			panic(err)
		}
	}
}
