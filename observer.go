package unbiasedfl

import (
	"unbiasedfl/internal/experiment"
)

// Streaming-observer types: typed progress events delivered serially and in
// deterministic order while a Session method is in flight. Attach an
// observer with WithObserver.
type (
	// Event is any typed progress notification; switch on the concrete
	// types below.
	Event = experiment.Event
	// Observer receives events; ObserverFunc adapts a plain function.
	Observer = experiment.Observer
	// ObserverFunc adapts a func(Event) to the Observer interface.
	ObserverFunc = experiment.ObserverFunc
	// RoundStart fires before a training round's local updates begin.
	RoundStart = experiment.RoundStart
	// RoundEnd fires after a round; Loss/Accuracy are set when Evaluated.
	RoundEnd = experiment.RoundEnd
	// SchemeSolved fires when a scheme's Stage-I pricing is solved, before
	// training under it starts.
	SchemeSolved = experiment.SchemeSolved
	// SchemeDone fires when a scheme's averaged training run completes.
	SchemeDone = experiment.SchemeDone
	// SweepPointDone fires per finished sweep point, in ascending index
	// order even when points execute concurrently.
	SweepPointDone = experiment.SweepPointDone
)
