package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadline is the sentinel wrapped by every DeadlineError; match it with
// errors.Is when the failed operation's identity does not matter.
var ErrDeadline = errors.New("comm: deadline exceeded")

// DeadlineError reports a point-to-point operation that made no progress
// inside its idle window. It names the peer, which is what makes the
// stuck-step watchdog work: a hung-but-heartbeating rank never produces an
// error of its own, so the only evidence against it is its peers' deadline
// errors, and the trainer expels the rank those errors blame. Extract with
// errors.As; Unwrap yields ErrDeadline.
type DeadlineError struct {
	Op   string // "send" or "recv"
	Peer int
	Idle time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: %s peer %d: no progress in %v: deadline exceeded", e.Op, e.Peer, e.Idle)
}

func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// timeoutCapable is the native timeout path WithDeadline uses: a transport
// whose blocking points are selects adds a timer case instead of paying a
// helper goroutine per operation. Both in-repo transports (inproc and TCP)
// implement it, and their Send and Recv are exactly these two at d = 0.
type timeoutCapable interface {
	RecvTimeout(from int, d time.Duration) ([]byte, error)
	SendTimeout(to int, data []byte, d time.Duration) error
}

// idleTimer arms the idle window of one bounded op: the channel fires after
// d and stop disarms it. For d <= 0 the channel is nil, a select case that
// never fires, so an unbounded op shares the bounded op's one select.
func idleTimer(d time.Duration) (timeout <-chan time.Time, stop func() bool) {
	if d <= 0 {
		return nil, noTimer
	}
	t := time.NewTimer(d)
	return t.C, t.Stop
}

func noTimer() bool { return false }

// WithDeadline wraps t so every Send, SendNoCopy and Recv fails with a
// *DeadlineError once it makes no progress for idle — the detection layer of
// the stuck-step watchdog. A non-positive idle returns t unchanged.
//
// On a transport with native timeouts (both in-repo transports, undecorated)
// the hooks call SendTimeout and RecvTimeout, the same selects Send and Recv
// run, with a timer armed. For other stacks Recv falls back to a helper
// goroutine per call: on timeout the helper keeps waiting until the
// transport closes — a deadline error always precipitates a group abort, so
// the wait is bounded — and releases any late-arriving buffer back to the
// pool; Send has no generic fallback and passes through undecorated (the
// hang vector the watchdog exists for is the receive side).
//
// Ownership on a send timeout follows the failed-send rule: the buffer was
// not consumed and stays with the caller.
func WithDeadline(t Transport, idle time.Duration) Transport {
	if idle <= 0 {
		return t
	}
	if nat, ok := t.(timeoutCapable); ok {
		return &decorator{
			Transport: t,
			send:      func(to int, buf []byte) error { return nat.SendTimeout(to, buf, idle) },
			recv:      func(from int) ([]byte, error) { return nat.RecvTimeout(from, idle) },
		}
	}
	return &decorator{Transport: t, recv: func(from int) ([]byte, error) {
		type result struct {
			data []byte
			err  error
		}
		// Unbuffered on purpose: the helper's send only completes while the
		// caller is still waiting, so a result can never be stranded in a
		// buffer nobody drains.
		ch := make(chan result)
		abandoned := make(chan struct{})
		go func() {
			data, err := t.Recv(from)
			select {
			case ch <- result{data, err}:
			case <-abandoned:
				if data != nil {
					t.Release(data)
				}
			}
		}()
		timer := time.NewTimer(idle)
		defer timer.Stop()
		select {
		case r := <-ch:
			return r.data, r.err
		case <-timer.C:
			close(abandoned)
			return nil, &DeadlineError{Op: "recv", Peer: from, Idle: idle}
		}
	}}
}

// WithStall wraps t so the first n Send/SendNoCopy/Recv operations pass
// through and every later one blocks until the transport is closed, then
// fails with ErrClosed — the scripted hung-but-heartbeating rank, the
// failure mode heartbeats cannot see. Because the stall sits in front of any
// deadline decoration, the wedged rank produces no deadline error of its
// own: its peers' blame is the only signal, exactly as with a real wedge.
// The group abort that follows closes the transport and unblocks the
// stalled operation, so teardown never hangs on the chaos it injected. A
// stalled send leaves the unconsumed buffer with the caller, per the
// failed-send ownership rule.
func WithStall(t Transport, n int) Transport {
	var budget atomic.Int64
	budget.Store(int64(n))
	stalled := make(chan struct{})
	var once sync.Once
	// The stall needs no timer case: the whole point is to wedge until the
	// watchdog aborts the group, and that abort is what closes stalled.
	d := gated(t, func(string, int) error {
		if budget.Add(-1) < 0 {
			<-stalled
			return ErrClosed
		}
		return nil
	})
	d.close = func() error {
		once.Do(func() { close(stalled) })
		return t.Close()
	}
	return d
}
