package game

import (
	"reflect"
	"strings"
	"testing"
)

type fakeScheme struct{ name string }

func (f fakeScheme) Name() string { return f.name }
func (f fakeScheme) Price(p *Params) (*Outcome, error) {
	prices := make([]float64, p.N())
	return p.OutcomeFor(f.name, prices)
}

func TestRegistryBuiltins(t *testing.T) {
	names := SchemeNames()
	if len(names) < 3 {
		t.Fatalf("names %v", names)
	}
	want := []string{SchemeNameProposed, SchemeNameWeighted, SchemeNameUniform}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("canonical order broken: %v", names)
		}
	}
	for _, w := range want {
		if _, err := SchemeByName(w); err != nil {
			t.Fatalf("builtin %q missing: %v", w, err)
		}
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	if err := RegisterScheme(nil); err == nil {
		t.Fatal("expected nil-scheme error")
	}
	if err := RegisterScheme(fakeScheme{name: ""}); err == nil {
		t.Fatal("expected empty-name error")
	}
	if err := RegisterScheme(fakeScheme{name: SchemeNameProposed}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := RegisterScheme(fakeScheme{name: "reg-test"}); err != nil {
		t.Fatal(err)
	}
	defer UnregisterScheme("reg-test")
	if err := RegisterScheme(fakeScheme{name: "reg-test"}); err == nil {
		t.Fatal("expected duplicate error on re-register")
	}
	if _, err := SchemeByName("reg-test"); err != nil {
		t.Fatal(err)
	}
	if got := SchemeNames(); got[len(got)-1] != "reg-test" {
		t.Fatalf("registration order: %v", got)
	}
}

func TestRegistryUnregister(t *testing.T) {
	if UnregisterScheme("never-registered") {
		t.Fatal("unregistered a ghost")
	}
	if err := RegisterScheme(fakeScheme{name: "ephemeral"}); err != nil {
		t.Fatal(err)
	}
	if !UnregisterScheme("ephemeral") {
		t.Fatal("unregister failed")
	}
	if _, err := SchemeByName("ephemeral"); err == nil {
		t.Fatal("scheme survived unregistration")
	}
}

func TestSchemeByNameErrorListsKnown(t *testing.T) {
	_, err := SchemeByName("nope")
	if err == nil || !strings.Contains(err.Error(), SchemeNameProposed) {
		t.Fatalf("error should list registered schemes: %v", err)
	}
}

// TestEnumShimMatchesRegistry pins the registry's adapter around the paper's
// three solvers: a built-in priced by name is exactly what its solver
// computes, labelled with the registry name and nothing else.
func TestEnumShimMatchesRegistry(t *testing.T) {
	p := testParams(t, 1, 6, 50, 4000, 200)
	for name, solve := range map[string]func(*Params) (*Outcome, error){
		SchemeNameProposed: (*Params).solveProposed,
		SchemeNameUniform:  (*Params).solveUniformPricing,
		SchemeNameWeighted: (*Params).solveWeightedPricing,
	} {
		want, err := solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want.Name = name
		if got := priceBy(t, p, name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s through the registry: %+v, solver: %+v", name, got, want)
		}
	}
}

func TestOutcomeFor(t *testing.T) {
	p := testParams(t, 2, 5, 50, 4000, 200)
	prices := make([]float64, p.N())
	for i := range prices {
		prices[i] = 1
	}
	out, err := p.OutcomeFor("custom", prices)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "custom" {
		t.Fatalf("identity: %q", out.Name)
	}
	if len(out.Q) != p.N() || out.Spent < 0 {
		t.Fatalf("outcome malformed: %+v", out)
	}
	if _, err := p.OutcomeFor("custom", prices[:2]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}
