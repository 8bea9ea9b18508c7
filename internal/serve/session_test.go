package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/scenario"
)

// waitState polls a session until it reaches want (or any terminal state),
// failing the test on timeout.
func waitState(t *testing.T, base, id, want string, timeout time.Duration) SessionStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeResp[SessionStatus](t, resp)
		if st.State == want {
			return st
		}
		if terminalState(st.State) {
			t.Fatalf("session %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func createSession(t *testing.T, base string, req SessionRequest) SessionStatus {
	t.Helper()
	resp := postJSON(t, base+"/v1/sessions", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	return decodeResp[SessionStatus](t, resp)
}

// TestScenarioSessionTraceMatchesFacade pins the issue's core equivalence:
// a session driven through the HTTP API yields a canonical trace
// byte-identical to the same scenario run directly.
func TestScenarioSessionTraceMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := tinyScenario()

	st := createSession(t, ts.URL, SessionRequest{Spec: &sc})
	waitState(t, ts.URL, st.ID, StateDone, 60*time.Second)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	trace, err := scenario.RunWith(context.Background(), sc, scenario.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("API trace differs from direct run:\nAPI  %d bytes\ndirect %d bytes", got.Len(), len(want))
	}
}

type sseFrame struct {
	id   int
	typ  string
	data string
}

// readSSE consumes an SSE stream until a terminal event arrives.
func readSSE(t *testing.T, r *http.Response) []sseFrame {
	t.Helper()
	defer r.Body.Close()
	var (
		frames []sseFrame
		cur    sseFrame
	)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			frames = append(frames, cur)
			if cur.typ == eventDone || cur.typ == eventError || cur.typ == eventCancelled {
				return frames
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[len("id: "):])
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("SSE stream ended without a terminal event (%d frames, scan err %v)", len(frames), sc.Err())
	return nil
}

// TestSSEMatchesDirectObserver pins SSE determinism: the observer-derived
// events streamed over the API — subscribed live, before the run finishes —
// are byte-identical, in order, to a direct scenario run's encoded
// Observer stream.
func TestSSEMatchesDirectObserver(t *testing.T) {
	sc := tinyScenario()

	// Direct run, encoding each observer event exactly as the SSE layer does.
	var want []sseFrame
	obs := experiment.ObserverFunc(func(e experiment.Event) {
		typ, data, err := EncodeEvent(e)
		if err != nil {
			t.Errorf("encode direct event: %v", err)
			return
		}
		want = append(want, sseFrame{typ: typ, data: string(data)})
	})
	if _, err := scenario.RunWith(context.Background(), sc, scenario.RunConfig{Events: obs}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("direct run produced no observer events")
	}

	_, ts := newTestServer(t, Config{})
	st := createSession(t, ts.URL, SessionRequest{Spec: &sc})
	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)

	// IDs must be the contiguous event-log sequence.
	for i, f := range frames {
		if f.id != i+1 {
			t.Fatalf("frame %d has id %d, want %d", i, f.id, i+1)
		}
	}
	// Lifecycle bookends wrap the observer-derived events.
	if frames[0].typ != eventQueued || frames[1].typ != eventStarted {
		t.Fatalf("stream starts %s,%s, want queued,started", frames[0].typ, frames[1].typ)
	}
	if last := frames[len(frames)-1]; last.typ != eventDone {
		t.Fatalf("stream ends with %s, want done", last.typ)
	}
	got := frames[2 : len(frames)-1]
	if len(got) != len(want) {
		t.Fatalf("API stream has %d observer events, direct run %d", len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || got[i].data != want[i].data {
			t.Fatalf("event %d differs:\nAPI    %s %s\ndirect %s %s",
				i, got[i].typ, got[i].data, want[i].typ, want[i].data)
		}
	}
}

// TestSchemeRunSession drives the Session-facade workload end to end.
func TestSchemeRunSession(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	_, ts := newTestServer(t, Config{})
	st := createSession(t, ts.URL, SessionRequest{Run: &SchemeRunRequest{
		Setup: 1, Scheme: "proposed", Clients: 5, Samples: 600, Rounds: 10, Runs: 1, Seed: 3,
	}})
	if st.Kind != "run" || st.Label != "setup1/proposed" {
		t.Fatalf("session %+v, want kind=run label=setup1/proposed", st)
	}
	waitState(t, ts.URL, st.ID, StateDone, 120*time.Second)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decodeResp[map[string]any](t, resp)
	if res["scheme"] != "proposed" {
		t.Fatalf("result scheme %v, want proposed", res["scheme"])
	}
	if id, _ := res["session"].(string); !strings.HasPrefix(id, "session-") {
		t.Fatalf("result session id %v, want a facade session-N id", res["session"])
	}
	if done, _ := waitStatus(t, ts.URL, st.ID); done.Rounds == 0 {
		t.Fatal("scheme-run session committed no rounds")
	}
}

func waitStatus(t *testing.T, base, id string) (SessionStatus, error) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return SessionStatus{}, err
	}
	return decodeResp[SessionStatus](t, resp), nil
}

// blockingOverride makes every admitted session block until its context is
// cancelled — the deterministic stand-in for a long-running federation run
// in admission-control tests.
func blockingOverride(s *Server) {
	s.runOverride = func(sess *serveSession) {
		<-sess.ctx.Done()
		sess.finish(StateCancelled, eventCancelled, []byte(`{"reason":"test"}`), nil, "cancelled")
	}
}

// TestAdmissionControl pins the 429 contract: MaxSessions running,
// MaxQueued waiting, reject beyond, and a freed slot admits the queue head.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1, MaxQueued: 1})
	blockingOverride(s)

	first := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})
	if first.State != StateRunning {
		t.Fatalf("first session state %s, want running", first.State)
	}
	second := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})
	if second.State != StateQueued {
		t.Fatalf("second session state %s, want queued", second.State)
	}

	resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Scenario: "baseline"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session status %d, want 429", resp.StatusCode)
	}
	env := decodeResp[cli.ErrorEnvelope](t, resp)
	if env.Error.Code != "sessions_full" {
		t.Fatalf("error code %q, want sessions_full", env.Error.Code)
	}

	// Cancelling the running session frees its slot for the queued one.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+first.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, first.ID, StateCancelled, 5*time.Second)
	waitState(t, ts.URL, second.ID, StateRunning, 5*time.Second)

	// Clean up the now-running second session.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+second.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, second.ID, StateCancelled, 5*time.Second)
}

// TestDeleteQueuedSession pins that DELETE on a queued session cancels it
// in place without it ever starting.
func TestDeleteQueuedSession(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1, MaxQueued: 2})
	blockingOverride(s)

	running := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})
	queued := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeResp[SessionStatus](t, resp)
	if st.State != StateCancelled {
		t.Fatalf("deleted queued session state %s, want cancelled", st.State)
	}

	// Its event log must show it never started.
	eresp, err := http.Get(ts.URL + "/v1/sessions/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, eresp)
	for _, f := range frames {
		if f.typ == eventStarted {
			t.Fatal("queued-then-deleted session emitted a started event")
		}
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+running.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, running.ID, StateCancelled, 5*time.Second)
}

// TestDeleteQueuedFreesItsSlot pins that a session deleted while queued
// gives its queue slot back and has its context cancelled: with one running
// slot and one queue slot, run A, queue B, delete B — C must then queue
// (not 429), the queued gauge must read 1, and B's context must be done.
func TestDeleteQueuedFreesItsSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1, MaxQueued: 1})
	blockingOverride(s)

	a := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})
	b := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+b.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := decodeResp[SessionStatus](t, dresp); st.State != StateCancelled {
		t.Fatalf("deleted queued session state %s, want cancelled", st.State)
	}
	select {
	case <-s.registry.get(b.ID).ctx.Done():
	default:
		t.Fatal("the deleted queued session's context is still live")
	}

	resp := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Scenario: "baseline"})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("session after a deleted queued one: status %d, want 202", resp.StatusCode)
	}
	c := decodeResp[SessionStatus](t, resp)
	if c.State != StateQueued {
		t.Fatalf("session after a deleted queued one: state %s, want queued", c.State)
	}
	if active, queued := s.registry.gauges(); active != 1 || queued != 1 {
		t.Fatalf("gauges read active %d, queued %d; want 1 and 1", active, queued)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "flserve_sessions_queued 1\n") {
		t.Fatalf("metrics do not read one queued session:\n%s", metrics)
	}

	// Freeing A's slot starts C, never B.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+a.ID, nil)
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, c.ID, StateRunning, 5*time.Second)
	if st, _ := waitStatus(t, ts.URL, b.ID); st.State != StateCancelled {
		t.Fatalf("deleted session B is now %s", st.State)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+c.ID, nil)
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, c.ID, StateCancelled, 5*time.Second)
}

// TestResultBeforeFinish pins the 409 for early result fetches.
func TestResultBeforeFinish(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	blockingOverride(s)
	st := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})

	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result status %d, want 409", resp.StatusCode)
	}
	env := decodeResp[cli.ErrorEnvelope](t, resp)
	if env.Error.Code != "not_finished" {
		t.Fatalf("error code %q, want not_finished", env.Error.Code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts.URL, st.ID, StateCancelled, 5*time.Second)
}

// TestDeleteQueuedRacesPromotion races DELETE on a queued session against
// the release that would promote it, a couple of thousand times: whichever
// wins, the session must end with exactly one terminal event, and a DELETE
// answered "cancelled" must mean it was never started.
func TestDeleteQueuedRacesPromotion(t *testing.T) {
	s := New(Config{MaxSessions: 1, MaxQueued: 1})
	var (
		holder *serveSession // the session occupying the one slot
		gate   chan struct{} // closed to let holder finish
	)
	s.runOverride = func(sess *serveSession) {
		if sess == holder {
			<-gate
		}
		sess.finish(StateDone, eventDone, nil, nil, "")
	}
	build := func() *serveSession {
		sess, err := s.buildSession(SessionRequest{Scenario: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	for i := 0; i < 2000; i++ {
		a, b := build(), build()
		// Both are read by the goroutine admitting a starts: set them first.
		holder, gate = a, make(chan struct{})
		for _, sess := range []*serveSession{a, b} {
			if err := s.registry.admit(sess); err != nil {
				t.Fatal(err)
			}
		}

		start := make(chan struct{})
		go func() {
			<-start
			close(gate) // a finishes; its release promotes b unless DELETE won
		}()
		close(start)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+b.id, nil))
		var st SessionStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("iteration %d: DELETE answered %d %q", i, rec.Code, rec.Body)
		}
		s.wg.Wait()

		for _, sess := range []*serveSession{a, b} {
			evs, _, done := sess.eventsSince(0)
			terminal, started := 0, false
			for _, e := range evs {
				switch e.typ {
				case eventStarted:
					started = true
				case eventDone, eventError, eventCancelled:
					terminal++
				}
			}
			if !done || terminal != 1 {
				t.Fatalf("iteration %d: session %s ended with %d terminal events (terminated: %v)", i, sess.id, terminal, done)
			}
			if sess == b && st.State == StateCancelled && (started || sess.status().State != StateCancelled) {
				t.Fatalf("iteration %d: DELETE answered cancelled, yet the session started (%v) and is now %s",
					i, started, sess.status().State)
			}
		}
	}
}
