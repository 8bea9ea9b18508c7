package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"unbiasedfl/internal/stats"
)

// Default retry tuning. DialRetry substitutes these for zero fields so a
// RetryPolicy{Attempts: 5} literal behaves sensibly.
const (
	// DefaultRetryBase is the first backoff interval.
	DefaultRetryBase = 50 * time.Millisecond
	// DefaultRetryMax caps the exponential backoff.
	DefaultRetryMax = 2 * time.Second
)

// RetryPolicy configures DialRetry: capped exponential backoff with
// deterministic jitter between dial attempts. The zero value is a single
// un-retried attempt, matching the historical single-shot dial.
type RetryPolicy struct {
	// Attempts is the maximum number of dial attempts (values below 1 mean
	// one attempt, i.e. no retry).
	Attempts int
	// Base is the backoff before the second attempt; it doubles each retry
	// (0 = DefaultRetryBase).
	Base time.Duration
	// Max caps the backoff (0 = DefaultRetryMax).
	Max time.Duration
	// HandshakeTimeout bounds each attempt's connect + version handshake
	// (0 = DefaultHandshakeTimeout, shared with the accept side).
	HandshakeTimeout time.Duration
}

// normalized fills zero fields with the defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = DefaultRetryBase
	}
	if p.Max <= 0 {
		p.Max = DefaultRetryMax
	}
	if p.HandshakeTimeout <= 0 {
		p.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return p
}

// fatalDialError reports errors that no amount of retrying can fix: the
// peer is alive but will never speak our protocol.
func fatalDialError(err error) bool {
	return errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrBadMagic)
}

// DialRetry dials addr and completes the version handshake, retrying
// transient failures (connection refused, reset, handshake timeout) under
// the policy's capped exponential backoff. Fatal handshake outcomes —
// ErrVersionMismatch, ErrBadMagic — abort immediately: the peer answered
// and will keep answering the same way. rng, when non-nil, supplies
// deterministic jitter (each sleep is scaled into [½, 1] of the nominal
// backoff) so a rebooting fleet does not reconnect in lockstep; nil means
// no jitter. The returned connection has completed the handshake and
// carries no deadline.
func DialRetry(ctx context.Context, addr string, policy RetryPolicy, rng *stats.RNG) (net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := policy.normalized()
	backoff := p.Base
	var lastErr error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			sleep := backoff
			if rng != nil {
				sleep = time.Duration((0.5 + 0.5*rng.Float64()) * float64(sleep))
			}
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
			if backoff *= 2; backoff > p.Max {
				backoff = p.Max
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conn, err := dialOnce(ctx, addr, p.HandshakeTimeout)
		if err == nil {
			return conn, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if fatalDialError(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dial %s failed after %d attempts: %w", addr, p.Attempts, lastErr)
}

// dialOnce performs one connect + handshake attempt under its own deadline.
func dialOnce(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	// The cancellation watcher makes a ctx cancelled mid-handshake sever the
	// socket rather than wait out the deadline.
	stop := CloseOnCancel(ctx, conn)
	defer stop()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := Handshake(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}
