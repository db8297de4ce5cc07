package comm

import (
	"errors"
	"testing"
)

// closeAll closes every transport of a group.
func closeAll(ts []Transport) {
	for _, t := range ts {
		t.Close()
	}
}

// TestWithFlakyPassthrough: non-positive probability returns the transport
// unwrapped — no decorator overhead on the healthy path.
func TestWithFlakyPassthrough(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if got := WithFlaky(ts[0], 0, 1); got != ts[0] {
		t.Fatal("p=0 should return the transport unchanged")
	}
	if got := WithFlaky(ts[0], -0.5, 1); got != ts[0] {
		t.Fatal("p<0 should return the transport unchanged")
	}
}

// flakySequence drives n sends through a freshly seeded flaky wrapper and
// records which ones failed.
func flakySequence(t *testing.T, seed int64, n int) []bool {
	t.Helper()
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	f := WithFlaky(ts[0], 0.4, seed)
	fails := make([]bool, n)
	for i := range fails {
		err := f.Send(1, []byte{byte(i)})
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("flaky failure must wrap ErrInjected, got %v", err)
			}
			fails[i] = true
		} else {
			data, err := ts[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			ts[1].Release(data)
		}
	}
	return fails
}

// TestWithFlakyDeterminism: the same seed yields the same failure pattern
// (reproducible chaos); a different seed yields a different one.
func TestWithFlakyDeterminism(t *testing.T) {
	a := flakySequence(t, 42, 64)
	b := flakySequence(t, 42, 64)
	c := flakySequence(t, 43, 64)
	sawFail, sawOK := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			sawFail = true
		} else {
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("p=0.4 over 64 ops should mix failures and successes (fail=%v ok=%v)", sawFail, sawOK)
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical failure patterns")
	}
}

// TestWithFlakyLeaseOwnership: a failed SendNoCopy leaves the lease with the
// caller, for every decorator that can fail one — the gated ones directly,
// and the substituting ones (integrity, corrupt) when the send of their
// leased copy fails underneath. The caller's bytes are untouched (no
// in-place seal or flip), and releasing the lease brings the pool back to
// zero outstanding, per the Transport ownership contract.
func TestWithFlakyLeaseOwnership(t *testing.T) {
	cases := []struct {
		name string
		wrap func(Transport) Transport
	}{
		{"fault", func(t Transport) Transport { return WithFaultAfter(t, 0) }},
		{"flaky", func(t Transport) Transport { return WithFlaky(t, 1, 7) }},
		{"integrity", func(t Transport) Transport { return WithIntegrity(WithFaultAfter(t, 0)) }},
		{"corrupt", func(t Transport) Transport { return WithCorrupt(WithFaultAfter(t, 0), 1, 7) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := NewInprocGroup(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(ts)
			f := tc.wrap(ts[0])
			acct := ts[0].(leaseAccountant)

			buf := f.Lease(64)
			for i := range buf {
				buf[i] = byte(i*7 + 3)
			}
			if err := f.SendNoCopy(1, buf); !errors.Is(err, ErrInjected) {
				t.Fatalf("want injected failure, got %v", err)
			}
			for i := range buf {
				if buf[i] != byte(i*7+3) {
					t.Fatalf("byte %d of the caller's buffer changed: %#x", i, buf[i])
				}
			}
			// The pool must not hand the caller's buffer to anyone else. Two
			// leases: a failed substitute puts its own copy back first.
			others := [][]byte{f.Lease(64), f.Lease(64)}
			for _, o := range others {
				if &o[0] == &buf[0] {
					t.Fatal("the failed send released the caller's buffer to the pool")
				}
				f.Release(o)
			}
			// Ownership stayed with the caller; release must fully recycle.
			f.Release(buf)
			if n := acct.Outstanding(); n != 0 {
				t.Fatalf("%d buffers outstanding after releasing a failed SendNoCopy", n)
			}
		})
	}
}

// TestWithFlakyRecvConsumesNothing: a failed Recv drops nothing — the queued
// message is still delivered by the next Recv on the undecorated endpoint.
func TestWithFlakyRecvConsumesNothing(t *testing.T) {
	ts, err := NewInprocGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if err := ts[0].Send(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	f := WithFlaky(ts[1], 1, 9) // p=1: every roll fails
	dropped, err := f.Recv(0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected recv failure, got %v", err)
	}
	f.Release(dropped) // nil on the injected-failure path; Release is a no-op on unknown buffers
	data, err := ts[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("message lost across failed recv: %q", data)
	}
	ts[1].Release(data)
}
