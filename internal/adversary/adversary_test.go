package adversary

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
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

// TestPoisonTableCompilesEveryPoisoner: an honest fleet compiles to no table,
// and every poisoner becomes one engine row with its client, factor and start
// round unchanged — the engine validates the rows and stamps the factors.
func TestPoisonTableCompilesEveryPoisoner(t *testing.T) {
	if table := PoisonTable(nil); table != nil {
		t.Fatalf("honest fleet compiled to %+v, want no table", table)
	}
	poisons := []Poison{{Client: 1, Factor: -2, FromRound: 4}, {Client: 0, Factor: 0}}
	want := []engine.Poison{{Client: 1, Factor: -2, FromRound: 4}, {Client: 0, Factor: 0}}
	if got := PoisonTable(poisons); !reflect.DeepEqual(got, want) {
		t.Fatalf("PoisonTable = %+v, want %+v", got, want)
	}
}
