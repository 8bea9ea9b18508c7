package transport

import (
	"net"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, err := NewCodec(a, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCodec(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	want := &Message{
		Type: MsgUpdate, ClientID: 7, Round: 3,
		Model: []float64{1.5, -2.25, 0}, GradSqNorm: 9.5,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ca.Send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if got.Type != want.Type || got.ClientID != 7 || got.Round != 3 ||
		len(got.Model) != 3 || got.Model[1] != -2.25 || got.GradSqNorm != 9.5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := NewCodec(nil, 0); err == nil {
		t.Fatal("expected nil-conn error")
	}
}
