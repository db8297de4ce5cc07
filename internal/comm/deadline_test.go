package comm

import (
	"errors"
	"testing"
	"time"
)

// TestDeadlineRecvTimesOut: a receive with nothing inbound fails with a
// *DeadlineError naming the silent peer, on both native transports.
func TestDeadlineRecvTimesOut(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		d := WithDeadline(ts[0], 30*time.Millisecond)
		start := time.Now()
		_, err := d.Recv(1)
		if err == nil {
			t.Fatal("recv from a silent peer should time out")
		}
		var de *DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("expected *DeadlineError, got %T: %v", err, err)
		}
		if de.Peer != 1 || de.Op != "recv" {
			t.Fatalf("blamed op %q peer %d, want recv peer 1", de.Op, de.Peer)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("deadline error should unwrap to ErrDeadline: %v", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("timeout took %v — deadline not enforced", waited)
		}

		// A message that is actually there passes straight through.
		if err := ts[1].Send(0, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		got, err := d.Recv(1)
		if err != nil || string(got) != "hi" {
			t.Fatalf("healthy recv through the decorator: %q, %v", got, err)
		}
		d.Release(got)
	})
}

// TestDeadlineSendTimesOut: once internal buffering is exhausted and the
// peer consumes nothing, a bounded send blames the peer instead of blocking
// forever.
func TestDeadlineSendTimesOut(t *testing.T) {
	ts, err := NewInprocGroup(2, 1) // capacity 1: the second send must block
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	d := WithDeadline(ts[0], 30*time.Millisecond)
	if err := d.Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err = d.Send(1, []byte("b"))
	var de *DeadlineError
	if !errors.As(err, &de) || de.Op != "send" || de.Peer != 1 {
		t.Fatalf("expected send DeadlineError for peer 1, got %v", err)
	}
}

// TestDeadlineCollectivesPassThrough: WithDeadline is transparent to a
// healthy ring all-reduce on both transports.
func TestDeadlineCollectivesPassThrough(t *testing.T) {
	const p, n = 3, 257
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		for i := range ts {
			ts[i] = WithDeadline(ts[i], 2*time.Second)
		}
		inputs, want := makeInputs(p, n, 99)
		runGroup(t, ts, func(c *Communicator) error {
			buf := append([]float64(nil), inputs[c.Rank()]...)
			if err := c.AllReduceSum(buf); err != nil {
				return err
			}
			for i := range buf {
				if diff := buf[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("rank %d elem %d: got %g want %g", c.Rank(), i, buf[i], want[i])
					break
				}
			}
			return nil
		})
	})
}

// TestDeadlineFallbackRecv: an inner transport without native timeouts (any
// decorated stack) gets the helper-goroutine fallback — the timeout still
// fires, and a buffer that arrives after abandonment is released back to the
// pool rather than leaked.
func TestDeadlineFallbackRecv(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	// WithLatency hides the native timeout methods, forcing the fallback.
	d := WithDeadline(WithLatency(ts[0], time.Nanosecond), 30*time.Millisecond)
	if _, ok := d.(*decorator).Transport.(timeoutCapable); ok {
		t.Fatal("test premise broken: inner transport has native timeouts")
	}

	//acpvet:ignore this Recv must time out, so no buffer is ever leased to release
	_, err = d.Recv(1)
	var de *DeadlineError
	if !errors.As(err, &de) || de.Peer != 1 {
		t.Fatalf("fallback recv should produce a DeadlineError for peer 1, got %v", err)
	}

	// The abandoned helper is still blocked in the inner Recv. Deliver a
	// leased buffer late: the helper must release it back to the pool.
	buf := ts[1].Lease(8)
	if err := ts[1].SendNoCopy(0, buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ts[0].(*inprocTransport).Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late buffer never released: %d outstanding", ts[0].(*inprocTransport).Outstanding())
		}
		time.Sleep(time.Millisecond)
	}

	// A message present before the deadline passes through the fallback.
	if err := ts[1].Send(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Recv(1)
	if err != nil || string(got) != "ok" {
		t.Fatalf("healthy fallback recv: %q, %v", got, err)
	}
	d.Release(got)
}

// TestWithStall: the scripted hung rank. The first n operations pass, later
// ones wedge without erroring, and closing the transport (what a group abort
// does) unblocks them with ErrClosed — chaos that can always be torn down.
func TestWithStall(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		s := WithStall(ts[0], 1)
		if err := s.Send(1, []byte("first")); err != nil {
			t.Fatalf("op inside the budget should pass: %v", err)
		}
		got, err := ts[1].Recv(0)
		if err != nil || string(got) != "first" {
			t.Fatalf("pass-through op not delivered: %q, %v", got, err)
		}
		ts[1].Release(got)

		errc := make(chan error, 1)
		go func() { errc <- s.Send(1, []byte("stalls")) }()
		select {
		case err := <-errc:
			t.Fatalf("op past the budget returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		s.Close()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("stalled op should fail with ErrClosed after close, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("stalled op did not unblock on close")
		}

		// A stalled rank produces no deadline error of its own even when
		// deadline-decorated underneath — blame must come from peers.
		s2 := WithStall(WithDeadline(ts[1], 10*time.Millisecond), 0)
		errc2 := make(chan error, 1)
		go func() {
			//acpvet:ignore the stalled Recv only ever returns ErrClosed, never a buffer
			_, err := s2.Recv(0)
			errc2 <- err
		}()
		select {
		case err := <-errc2:
			t.Fatalf("stall over deadline decoration leaked an error: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		s2.Close()
		if err := <-errc2; !errors.Is(err, ErrClosed) {
			t.Fatalf("expected ErrClosed after close, got %v", err)
		}
	})
}
