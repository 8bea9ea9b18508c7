package adversary

import (
	"math"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/tensor"
)

func truthParams() *game.Params {
	return &game.Params{
		A:     []float64{0.25, 0.25, 0.5},
		G:     []float64{10, 10, 10},
		C:     []float64{50, 60, 70},
		V:     []float64{500, 800, 1200},
		Alpha: 0.5,
		R:     1000,
		B:     40,
		QMax:  1,
		QMin:  game.DefaultQMin,
	}
}

func TestReportedParamsHonestPathIsTruth(t *testing.T) {
	truth := truthParams()
	got, err := ReportedParams(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth {
		t.Fatal("no misreports must return the truth itself, not a clone")
	}
}

func TestReportedParamsDistortsOnlyTheLiar(t *testing.T) {
	truth := truthParams()
	got, err := ReportedParams(truth, []Misreport{{Client: 1, Factor: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got == truth {
		t.Fatal("a misreport must clone, never mutate the truth")
	}
	if truth.C[1] != 60 {
		t.Fatalf("truth mutated: C[1] = %v", truth.C[1])
	}
	want := []float64{50, 180, 70}
	for n, c := range got.C {
		if c != want[n] {
			t.Errorf("reported C[%d] = %v, want %v", n, c, want[n])
		}
	}
}

func TestReportedParamsErrors(t *testing.T) {
	cases := []struct {
		name string
		rep  Misreport
		want string
	}{
		{"client out of range", Misreport{Client: 3, Factor: 2}, "out of range"},
		{"negative client", Misreport{Client: -1, Factor: 2}, "out of range"},
		{"zero factor", Misreport{Client: 0, Factor: 0}, "positive and finite"},
		{"negative factor", Misreport{Client: 0, Factor: -2}, "positive and finite"},
		{"NaN factor", Misreport{Client: 0, Factor: math.NaN()}, "positive and finite"},
		{"Inf factor", Misreport{Client: 0, Factor: math.Inf(1)}, "positive and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReportedParams(truthParams(), []Misreport{tc.rep})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestTamperScalesOnlyThePoisonerFromItsRound(t *testing.T) {
	hook, err := Tamper(3, []Poison{{Client: 1, Factor: -2, FromRound: 4}})
	if err != nil {
		t.Fatal(err)
	}
	upd := func(client int) *engine.ClientUpdate {
		return &engine.ClientUpdate{Client: client, Delta: tensor.Vec{1, 2}}
	}
	if u := upd(1); true {
		hook(3, u)
		if u.Delta[0] != 1 || u.Delta[1] != 2 {
			t.Fatalf("poison fired before FromRound: %v", u.Delta)
		}
	}
	for _, round := range []int{4, 9} {
		u := upd(1)
		hook(round, u)
		if u.Delta[0] != -2 || u.Delta[1] != -4 {
			t.Fatalf("round %d: delta = %v, want [-2 -4]", round, u.Delta)
		}
	}
	u := upd(0)
	hook(7, u)
	if u.Delta[0] != 1 || u.Delta[1] != 2 {
		t.Fatalf("honest client tampered: %v", u.Delta)
	}
}

func TestTamperErrors(t *testing.T) {
	if hook, err := Tamper(3, nil); hook != nil || err != nil {
		t.Fatalf("honest fleet must compile to a nil hook and nil error, got err %v", err)
	}
	for _, bad := range []Poison{
		{Client: 3, Factor: 1},
		{Client: -1, Factor: 1},
		{Client: 0, Factor: math.NaN()},
		{Client: 0, Factor: math.Inf(-1)},
		{Client: 0, Factor: 1, FromRound: -1},
	} {
		if _, err := Tamper(3, []Poison{bad}); err == nil {
			t.Errorf("Tamper accepted %+v", bad)
		}
	}
}
