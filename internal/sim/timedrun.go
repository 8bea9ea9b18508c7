package sim

import (
	"errors"
	"time"

	"unbiasedfl/internal/engine"
)

// TimedResult is a training run paired with its simulated wall clock.
type TimedResult struct {
	Run    *engine.RunResult
	Points []TimedPoint
	Total  time.Duration
}

// Timestamp folds an already-finished run into the timed shape: per-round
// wall-clock stamps from the timing model plus the total simulated duration.
func Timestamp(res *engine.RunResult, tm *TimingModel, localSteps int) (*TimedResult, error) {
	if res == nil || tm == nil {
		return nil, errors.New("sim: nil run or timing model")
	}
	participants := make([][]int, len(res.History))
	for i, m := range res.History {
		participants[i] = m.ParticipantIDs
	}
	points, err := tm.Timeline(res.History, participants, localSteps)
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, ids := range participants {
		d, err := tm.RoundDuration(ids, localSteps)
		if err != nil {
			return nil, err
		}
		total += d
	}
	return &TimedResult{Run: res, Points: points, Total: total}, nil
}
