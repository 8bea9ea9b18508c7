package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"unbiasedfl/internal/testutil"
)

// TestAbandonedSSESubscribersDoNotLeak pins the SSE design invariant: a
// subscriber is the request goroutine itself (no per-subscriber goroutine
// is spawned), so clients that vanish mid-stream leave nothing behind once
// their connections close.
func TestAbandonedSSESubscribersDoNotLeak(t *testing.T) {
	baseline := testutil.GoroutineBaseline()

	s, ts := newTestServer(t, Config{MaxSessions: 1})
	blockingOverride(s)
	st := createSession(t, ts.URL, SessionRequest{Scenario: "baseline"})

	// Open several SSE streams and abandon them all mid-stream.
	client := &http.Client{}
	const subscribers = 8
	cancels := make([]context.CancelFunc, 0, subscribers)
	for i := 0; i < subscribers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/sessions/"+st.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read the first frame so the handler is demonstrably mid-stream,
		// then walk away without closing the body properly.
		buf := make([]byte, 64)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("first SSE read: %v", err)
		}
	}

	// Every subscriber must be registered before we abandon them.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.sseSubscribers.Load() != subscribers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d SSE subscribers registered", s.metrics.sseSubscribers.Load(), subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, cancel := range cancels {
		cancel()
	}
	client.CloseIdleConnections()

	// The handlers must unwind and deregister...
	deadline = time.Now().Add(5 * time.Second)
	for s.metrics.sseSubscribers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d SSE subscribers still registered after abandonment", s.metrics.sseSubscribers.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ...and the session's subscriber table must be empty again.
	sess := s.registry.get(st.ID)
	sess.mu.Lock()
	stale := len(sess.subs)
	sess.mu.Unlock()
	if stale != 0 {
		t.Fatalf("%d stale subscriber channels after abandonment", stale)
	}

	// Tear the session and test server down, then require the goroutine
	// count to return to the pre-test baseline.
	sess.cancel()
	waitState(t, ts.URL, st.ID, StateCancelled, 5*time.Second)
	ts.Close()
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestListenAndServeUnixDrains runs the daemon through ListenAndServe on a
// unix socket (see driveDaemon).
func TestListenAndServeUnixDrains(t *testing.T) {
	// A socket path must stay short (about 100 bytes), which t.TempDir's
	// test-named directories need not.
	dir, err := os.MkdirTemp("", "flserve")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.RemoveAll(dir) })
	sock := filepath.Join(dir, "d.sock")

	baseline := testutil.GoroutineBaseline()
	s := New(Config{Addr: "unix:" + sock, MaxSessions: 1, DrainTimeout: 5 * time.Second})
	transport := &http.Transport{DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "unix", sock)
	}}
	driveDaemon(t, s, transport, "http://flserve", s.ListenAndServe)
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestServeTCPDrains runs the daemon through Serve on a loopback TCP
// listener the caller bound (see driveDaemon).
func TestServeTCPDrains(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxSessions: 1, DrainTimeout: 5 * time.Second})
	serve := func(ctx context.Context) error { return s.Serve(ctx, ln) }
	driveDaemon(t, s, &http.Transport{}, "http://"+ln.Addr().String(), serve)
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// driveDaemon runs serve on a goroutine and drives s through transport at
// base: /readyz answers 503 before serve starts and 200 to the first
// request that reaches it (Serve flips readiness before it accepts),
// GET /v1/sessions lists a session just created, and cancelling ctx drains
// the running session and makes serve return nil within DrainTimeout.
func driveDaemon(t *testing.T, s *Server, transport *http.Transport, base string, serve func(context.Context) error) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz answered %d before the daemon served", rec.Code)
	}
	blockingOverride(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx) }()

	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 5 * time.Second}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/readyz answered %d", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never answered at %s: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	b, err := json.Marshal(SessionRequest{Scenario: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	created := decodeResp[SessionStatus](t, resp)
	resp, err = client.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeResp[struct {
		Sessions []SessionStatus `json:"sessions"`
	}](t, resp)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != created.ID {
		t.Fatalf("GET /v1/sessions listed %+v, want the session %s", list.Sessions, created.ID)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve after drain: %v", err)
		}
	case <-time.After(s.cfg.DrainTimeout):
		t.Fatalf("serve did not return within DrainTimeout %s", s.cfg.DrainTimeout)
	}
}
