package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"unbiasedfl/internal/testutil"
	"unbiasedfl/internal/transport"
)

// TestClusterOpenCloseUnderCancellableContext is the regression test for the
// ctx-watch goroutine's stop channel: Open followed at once by Close, under
// a context that can be cancelled but is not, used to race teardown's
// clearing of the field against the goroutine's first read of it (-race),
// and to park the goroutine on a nil channel when it lost that race (leak).
func TestClusterOpenCloseUnderCancellableContext(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fed := testFederation(t, 59, 2)
	spec := testSpec(t, fed, testModel(t, fed), 2, fullSampler(t, 2))
	for i := 0; i < 25; i++ {
		b := NewClusterBackend(ClusterOptions{})
		if err := b.Open(ctx, &spec); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}

// TestCheckPartial: a group partial is accepted only when it names exactly
// the dispatched members, in dispatch order, with one statistic and cursor
// each and one limb pair per parameter — a partial naming other in-range
// clients would credit their cursors to the wrong members.
func TestCheckPartial(t *testing.T) {
	const p, round, group = 3, 5, 2
	batch := []ClientTask{{Client: 4}, {Client: 5}}
	good := func() *transport.Message {
		return &transport.Message{
			Type: transport.MsgPartial, ClientID: group, Round: round,
			Clients: []int{4, 5}, GradSqs: []float64{1, 2}, Cursors: make([]transport.Cursor, 2),
			Lo: make([]uint64, p), Hi: make([]uint64, p),
		}
	}
	cases := []struct {
		name string
		edit func(m *transport.Message)
		want string // "" when the partial is accepted
	}{
		{"exact batch", func(*transport.Message) {}, ""},
		{"wrong type", func(m *transport.Message) { m.Type = transport.MsgUpdate }, "unexpected reply"},
		{"wrong group", func(m *transport.Message) { m.ClientID = group + 1 }, "unexpected reply"},
		{"wrong round", func(m *transport.Message) { m.Round = round - 1 }, "unexpected reply"},
		{"short limbs", func(m *transport.Message) { m.Lo = m.Lo[:p-1] }, "partial limbs"},
		{"missing member", func(m *transport.Message) { m.Clients = m.Clients[:1] }, "partial covers"},
		{"missing statistic", func(m *transport.Message) { m.GradSqs = m.GradSqs[:1] }, "partial covers"},
		{"members swapped", func(m *transport.Message) { m.Clients = []int{5, 4} }, "names client 5 at position 0"},
		{"other in-range member", func(m *transport.Message) { m.Clients = []int{4, 3} }, "names client 3 at position 1"},
		{"member twice", func(m *transport.Message) { m.Clients = []int{4, 4} }, "names client 4 at position 1"},
		{"out-of-range member", func(m *transport.Message) { m.Clients = []int{-1, 5} }, "names client -1 at position 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := good()
			tc.edit(m)
			err := checkPartial(m, group, batch, p, round)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
