package engine

import (
	"context"
	"testing"
	"time"

	"unbiasedfl/internal/testutil"
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
	spec := testSpec(t, fed, testModel(t, fed), 2, fullSampler{n: 2})
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

// TestExternalGroupFleetRefusesTamper: a tamper hook runs where a group
// folds, and cannot follow the fold into another process.
func TestExternalGroupFleetRefusesTamper(t *testing.T) {
	fed := testFederation(t, 59, 4)
	spec := testSpec(t, fed, testModel(t, fed), 2, fullSampler{n: 4})
	spec.GroupSize = 2
	spec.Tamper = func(int, *ClientUpdate) {}
	b := NewClusterBackend(ClusterOptions{Addr: "127.0.0.1:0"})
	if err := b.Open(context.Background(), &spec); err == nil {
		_ = b.Close()
		t.Fatal("an external group fleet accepted a tamper hook it cannot deliver")
	}
}
