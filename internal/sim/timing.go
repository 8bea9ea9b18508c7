// Package sim models the wall-clock behaviour of the paper's hardware
// prototype (40 Raspberry Pis and a laptop server on enterprise Wi-Fi). The
// prototype is substituted by a parametric timing model:
// every client has a compute time per local SGD iteration and a
// communication time per round, both drawn from heterogeneous lognormal
// distributions; a round lasts as long as its slowest participant plus the
// server-side aggregation overhead. The paper's headline results (Fig. 4,
// Tables II–III) are time-to-target measurements, which depend on exactly
// this structure.
package sim

import (
	"errors"
	"fmt"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
)

// ClientTiming is one device's latency profile.
type ClientTiming struct {
	// ComputePerStep is the duration of one local SGD iteration.
	ComputePerStep time.Duration
	// CommPerRound is the up+down model transfer duration for one round.
	CommPerRound time.Duration
}

// TimingModel holds all devices' profiles plus the server overhead.
type TimingModel struct {
	Clients        []ClientTiming
	ServerOverhead time.Duration
}

// TimingConfig parameterizes HeterogeneousTimings. Medians are for the
// lognormal draws; Sigma controls device heterogeneity.
type TimingConfig struct {
	NumClients     int
	ComputeMedian  time.Duration // median per-iteration compute time
	CommMedian     time.Duration // median per-round communication time
	Sigma          float64       // lognormal sigma (0 = homogeneous fleet)
	ServerOverhead time.Duration
}

// DefaultTimingConfig approximates Raspberry-Pi-class devices: ~10 ms per
// logistic-regression SGD step and ~300 ms per model exchange over Wi-Fi.
func DefaultTimingConfig(numClients int) TimingConfig {
	return TimingConfig{
		NumClients:     numClients,
		ComputeMedian:  10 * time.Millisecond,
		CommMedian:     300 * time.Millisecond,
		Sigma:          0.35,
		ServerOverhead: 20 * time.Millisecond,
	}
}

// HeterogeneousTimings draws a device fleet from cfg.
func HeterogeneousTimings(r *stats.RNG, cfg TimingConfig) (*TimingModel, error) {
	switch {
	case cfg.NumClients <= 0:
		return nil, errors.New("sim: need at least one client")
	case cfg.ComputeMedian <= 0 || cfg.CommMedian <= 0:
		return nil, errors.New("sim: medians must be positive")
	case cfg.Sigma < 0:
		return nil, errors.New("sim: negative sigma")
	case cfg.ServerOverhead < 0:
		return nil, errors.New("sim: negative server overhead")
	}
	comp, err := stats.LogNormal(r, cfg.NumClients, cfg.ComputeMedian.Seconds(), cfg.Sigma)
	if err != nil {
		return nil, err
	}
	comm, err := stats.LogNormal(r, cfg.NumClients, cfg.CommMedian.Seconds(), cfg.Sigma)
	if err != nil {
		return nil, err
	}
	tm := &TimingModel{
		Clients:        make([]ClientTiming, cfg.NumClients),
		ServerOverhead: cfg.ServerOverhead,
	}
	for i := range tm.Clients {
		tm.Clients[i] = ClientTiming{
			ComputePerStep: time.Duration(comp[i] * float64(time.Second)),
			CommPerRound:   time.Duration(comm[i] * float64(time.Second)),
		}
	}
	return tm, nil
}

// Scale multiplies client n's compute and communication times by factor —
// the seam fault schedules use to turn a device into a straggler (factor > 1)
// or a fast node (factor < 1) without redrawing the fleet.
func (t *TimingModel) Scale(n int, factor float64) error {
	if n < 0 || n >= len(t.Clients) {
		return fmt.Errorf("sim: client %d out of range", n)
	}
	if factor <= 0 {
		return errors.New("sim: scale factor must be positive")
	}
	ct := &t.Clients[n]
	ct.ComputePerStep = time.Duration(float64(ct.ComputePerStep) * factor)
	ct.CommPerRound = time.Duration(float64(ct.CommPerRound) * factor)
	return nil
}

// RoundDuration returns the wall-clock length of a round with the given
// participants, each running localSteps SGD iterations: the slowest
// participant's compute+comm time plus the server overhead. An empty round
// still costs the server overhead (it must notice nobody joined).
func (t *TimingModel) RoundDuration(participants []int, localSteps int) (time.Duration, error) {
	if localSteps <= 0 {
		return 0, errors.New("sim: local steps must be positive")
	}
	var slowest time.Duration
	for _, n := range participants {
		if n < 0 || n >= len(t.Clients) {
			return 0, fmt.Errorf("sim: participant %d out of range", n)
		}
		ct := t.Clients[n]
		d := time.Duration(localSteps)*ct.ComputePerStep + ct.CommPerRound
		if d > slowest {
			slowest = d
		}
	}
	return slowest + t.ServerOverhead, nil
}

// TimedPoint is a loss/accuracy sample stamped with simulated wall-clock
// time since training start.
type TimedPoint struct {
	Elapsed  time.Duration
	Round    int
	Loss     float64
	Accuracy float64
}

// Timeline stamps a finished run's evaluated rounds with simulated
// wall-clock time since training start: each round lasts RoundDuration of
// its participants.
func (t *TimingModel) Timeline(history []engine.RoundMetrics, localSteps int) ([]TimedPoint, error) {
	var clock time.Duration
	var out []TimedPoint
	for _, m := range history {
		d, err := t.RoundDuration(m.ParticipantIDs, localSteps)
		if err != nil {
			return nil, err
		}
		clock += d
		if m.Evaluated {
			out = append(out, TimedPoint{
				Elapsed:  clock,
				Round:    m.Round,
				Loss:     m.GlobalLoss,
				Accuracy: m.TestAccuracy,
			})
		}
	}
	return out, nil
}

// TimeToLoss returns the earliest elapsed time at which the loss reaches
// target (first point with Loss <= target), or ok=false if never reached.
func TimeToLoss(points []TimedPoint, target float64) (time.Duration, bool) {
	for _, p := range points {
		if p.Loss <= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// TimeToAccuracy returns the earliest elapsed time at which accuracy reaches
// target, or ok=false if never reached.
func TimeToAccuracy(points []TimedPoint, target float64) (time.Duration, bool) {
	for _, p := range points {
		if p.Accuracy >= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}
