package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// TraceEquilibrium is the priced market state a scenario ran under.
type TraceEquilibrium struct {
	// P and Q are the posted prices and induced participation levels, after
	// the runner's [QMin, QMax] clamp.
	P []float64 `json:"p"`
	Q []float64 `json:"q"`
	// Spent is Σ P_n q_n; ServerObj is the Theorem-1 bound term attained.
	Spent     float64 `json:"spent"`
	ServerObj float64 `json:"server_obj"`
}

// TraceEpoch is one membership epoch of an elastic run: who joined or left
// at its boundary, the resulting roster size, and the economics of the
// re-priced sub-game over the active fleet. Epoch 0 is the initial roster
// (no joins or leaves). The ledger is rebuilt identically on resume — the
// orchestrator replays past epochs through the re-pricing hook — so it is
// part of the byte-identity contract like every other trace field.
type TraceEpoch struct {
	Epoch  int   `json:"epoch"`
	Round  int   `json:"round"`
	Joined []int `json:"joined,omitempty"`
	Left   []int `json:"left,omitempty"`
	Active int   `json:"active"`
	// Spent and ServerObj are the re-priced sub-game's Σ P_n q_n and
	// Theorem-1 objective over the epoch's active clients.
	Spent     float64 `json:"spent"`
	ServerObj float64 `json:"server_obj"`
}

// TraceAdversary quantifies what a scenario's adversarial clients cost the
// mechanism. Every metric compares the realized (adversarial) run against its
// truthful counterfactual: the equilibrium metrics against the market priced
// on true costs, and the training metrics against an honest twin replayed
// with the same seed, exogenous faults, and membership churn but no
// misreports, deviations, or poisoning.
type TraceAdversary struct {
	// Misreporting, Deviating, and Poisoning list the adversarial clients by
	// behaviour, ascending.
	Misreporting []int `json:"misreporting,omitempty"`
	Deviating    []int `json:"deviating,omitempty"`
	Poisoning    []int `json:"poisoning,omitempty"`

	// TruthfulSpent and TruthfulServerObj are the Σ P_n q_n and Theorem-1
	// objective of the market priced on true costs; ServerObjInflation is how
	// much the realized (misreported) market's objective exceeds it — the
	// equilibrium-degradation metric.
	TruthfulSpent      float64 `json:"truthful_spent"`
	TruthfulServerObj  float64 `json:"truthful_server_obj"`
	ServerObjInflation float64 `json:"server_obj_inflation"`
	// UtilityShift is the fleet's total utility (scored at true costs) under
	// the realized market minus under the truthful one: what the lie moved.
	UtilityShift float64 `json:"utility_shift"`

	// HonestFinalLoss/Accuracy are the honest twin's end-of-run metrics;
	// LossInflation and AccuracyDrop are the realized run's degradation
	// relative to them — the accuracy-degradation metrics.
	HonestFinalLoss     float64 `json:"honest_final_loss"`
	HonestFinalAccuracy float64 `json:"honest_final_accuracy"`
	LossInflation       float64 `json:"loss_inflation"`
	AccuracyDrop        float64 `json:"accuracy_drop"`
}

// TraceRound is one training round of the trace. Loss and Accuracy are
// meaningful only when Evaluated.
type TraceRound struct {
	Round        int     `json:"round"`
	Participants int     `json:"participants"`
	TimeS        float64 `json:"time_s"`
	Evaluated    bool    `json:"evaluated,omitempty"`
	Loss         float64 `json:"loss,omitempty"`
	Accuracy     float64 `json:"accuracy,omitempty"`
}

// Trace is the canonical record of one scenario run: the priced equilibrium,
// the per-round trajectory, and the participation accounting that exposes
// how far the fault process pushed the realized participation away from the
// server's priced belief. Its Canonical JSON form is what the golden-trace
// regression suite pins: every field is filled deterministically from the
// scenario seed, so a byte-level diff against a committed golden file is a
// meaningful regression signal.
type Trace struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Setup       string `json:"setup"`
	Scheme      string `json:"scheme"`
	Clients     int    `json:"clients"`
	Rounds      int    `json:"rounds"`
	Seed        uint64 `json:"seed"`

	Equilibrium TraceEquilibrium `json:"equilibrium"`

	// Participation[n] counts the rounds client n actually joined;
	// EmpiricalQ[n] = Participation[n] / Rounds. Under faults EmpiricalQ
	// drifts below Equilibrium.Q — the bias pressure the unbiased
	// aggregation rule has to survive.
	Participation []int     `json:"participation"`
	EmpiricalQ    []float64 `json:"empirical_q"`
	// DroppedAt[n] is the round client n permanently left, or -1.
	DroppedAt []int `json:"dropped_at"`

	// Membership is the epoch ledger of an elastic run: one row per
	// membership epoch, in order. Empty for a fixed-roster scenario.
	Membership []TraceEpoch `json:"membership,omitempty"`

	// Adversary records the adversarial roster and degradation metrics. Nil
	// for a scenario with no adversarial faults, so honest traces — including
	// every pre-existing golden — are byte-identical to before the field
	// existed.
	Adversary *TraceAdversary `json:"adversary,omitempty"`

	RoundTrace []TraceRound `json:"round_trace"`

	FinalLoss          float64 `json:"final_loss"`
	FinalAccuracy      float64 `json:"final_accuracy"`
	TotalClientUtility float64 `json:"total_client_utility"`
	NegativePayments   int     `json:"negative_payments"`
	// SimTimeS is the simulated wall-clock length of the whole run, the
	// quantity the straggler schedule stretches.
	SimTimeS float64 `json:"sim_time_s"`
}

// Canonical renders the trace in its golden on-disk form: two-space
// indented JSON with a trailing newline, fields in struct order, floats in
// Go's shortest round-trip representation — byte-stable as long as the run
// itself is bit-reproducible.
func (t *Trace) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return nil, fmt.Errorf("scenario: encode trace: %w", err)
	}
	return buf.Bytes(), nil
}
