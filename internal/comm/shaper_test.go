package comm

import (
	"testing"
	"time"
)

// The alpha and beta shapers set the step time of the link-bound benchmark
// workloads. These tests assert lower bounds only: a loaded machine can make
// a shaped op slower, never faster.

// TestBandwidthPacerQueuesMessages: at 10 MB/s a 50,000-byte message holds
// the link for 5 ms. Back-to-back messages queue behind each other, and an
// idle link earns no credit for the next one.
func TestBandwidthPacerQueuesMessages(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	pacer := NewBandwidthPacer(10e6)
	src, dst := pacer.Wrap(ts[0]), pacer.Wrap(ts[1])
	const size, wire = 50_000, 5 * time.Millisecond

	recvAfter := func(start time.Time, min time.Duration) {
		t.Helper()
		data, err := dst.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		dst.Release(data)
		if got := time.Since(start); got < min {
			t.Fatalf("message delivered after %v, want >= %v", got, min)
		}
	}

	t0 := time.Now()
	for i := 0; i < 4; i++ {
		if err := src.Send(1, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 4; k++ {
		recvAfter(t0, time.Duration(k)*wire)
	}

	time.Sleep(30 * time.Millisecond)
	sent := time.Now()
	if err := src.Send(1, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	recvAfter(sent, wire)
}

// TestWithLatencyDelaysRecv: every Recv through WithLatency takes at least
// the per-hop delay, even when the message is already queued.
func TestWithLatencyDelaysRecv(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	const delay = 20 * time.Millisecond
	dst := WithLatency(ts[1], delay)
	if err := ts[0].Send(1, []byte("hop")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	data, err := dst.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	dst.Release(data)
	if got := time.Since(start); got < delay {
		t.Fatalf("recv took %v, want >= %v", got, delay)
	}
}

// TestShapersPassthrough: a non-positive rate or delay returns the transport
// itself, so an unshaped link pays no decorator.
func TestShapersPassthrough(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	for _, rate := range []float64{0, -1} {
		if got := NewBandwidthPacer(rate).Wrap(ts[0]); got != ts[0] {
			t.Fatalf("rate %v should return the transport unchanged", rate)
		}
	}
	for _, d := range []time.Duration{0, -time.Millisecond} {
		if got := WithLatency(ts[0], d); got != ts[0] {
			t.Fatalf("delay %v should return the transport unchanged", d)
		}
	}
}
