package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// This file is the cross-transport conformance suite: one table of contract
// tests executed identically against every Transport implementation. A new
// transport earns its place by appearing in transportFactories and passing
// everything here — collectives correctness, the Lease/Release/Retain
// pooled-buffer ownership rules, async handle semantics, and shutdown
// behavior (close during pending operations must fail fast, never deadlock).

// transportFactories enumerates the transports under contract.
var transportFactories = []struct {
	name string
	make func(p int) ([]Transport, error)
}{
	{"inproc", func(p int) ([]Transport, error) { return NewInprocGroup(p, 0) }},
	{"tcp", NewTCPGroup},
}

// forEachTransport runs fn once per transport implementation over a fresh
// p-rank group, closing the group afterwards.
func forEachTransport(t *testing.T, p int, fn func(t *testing.T, ts []Transport)) {
	t.Helper()
	for _, fac := range transportFactories {
		t.Run(fac.name, func(t *testing.T) {
			ts, err := fac.make(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				for _, tr := range ts {
					tr.Close()
				}
			})
			fn(t, ts)
		})
	}
}

// --- collectives correctness --------------------------------------------

func TestConformanceAllReduceSum(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 33, 257} {
			t.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(t *testing.T) {
				forEachTransport(t, p, func(t *testing.T, ts []Transport) {
					inputs, want := makeInputs(p, n, int64(p*1000+n))
					results := make([][]float64, p)
					runGroup(t, ts, func(c *Communicator) error {
						buf := append([]float64(nil), inputs[c.Rank()]...)
						if err := c.AllReduceSum(buf); err != nil {
							return err
						}
						results[c.Rank()] = buf
						return nil
					})
					for r := 0; r < p; r++ {
						for i := 0; i < n; i++ {
							if math.Abs(results[r][i]-want[i]) > 1e-9 {
								t.Fatalf("rank %d elem %d: got %v want %v", r, i, results[r][i], want[i])
							}
						}
					}
				})
			})
		}
	}
}

func TestConformanceAllGatherVariableSizes(t *testing.T) {
	const p = 4
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		runGroup(t, ts, func(c *Communicator) error {
			r := c.Rank()
			local := make([]byte, r*3) // deliberately different sizes, incl. empty
			for i := range local {
				local[i] = byte(r*10 + i)
			}
			got, err := c.AllGather(local)
			if err != nil {
				return err
			}
			defer got.Release()
			if got.Ranks() != p {
				return fmt.Errorf("got %d blobs, want %d", got.Ranks(), p)
			}
			if len(got.Bytes()) != got.Offsets()[p] {
				return fmt.Errorf("region %d bytes, offsets end at %d", len(got.Bytes()), got.Offsets()[p])
			}
			for q := 0; q < p; q++ {
				blob := got.Payload(q)
				if len(blob) != q*3 {
					return fmt.Errorf("blob %d has len %d, want %d", q, len(blob), q*3)
				}
				for i, b := range blob {
					if b != byte(q*10+i) {
						return fmt.Errorf("blob %d byte %d: got %d", q, i, b)
					}
				}
				if view := got.Payloads()[q]; len(view) != len(blob) {
					return fmt.Errorf("cached view %d has len %d, want %d", q, len(view), len(blob))
				}
			}
			return nil
		})
	})
}

// TestConformanceSingleRankShortCircuits: collectives on a one-rank group
// are identities and must not touch the (empty) wire.
func TestConformanceSingleRankShortCircuits(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, ts []Transport) {
		c := NewCommunicator(ts[0])
		buf := []float64{1, 2, 3}
		if err := c.AllReduceSum(buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 || buf[2] != 3 {
			t.Fatal("single-rank all-reduce must be identity")
		}
		g, err := c.AllGather([]byte{9})
		if err != nil || g.Ranks() != 1 || g.Payload(0)[0] != 9 {
			t.Fatalf("single-rank all-gather wrong: %v %v", g, err)
		}
		g.Release()
		a := NewAsync(c)
		defer a.Close()
		if err := a.AllReduceSumAsync(buf, 1).Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// --- point-to-point contract --------------------------------------------

func TestConformanceSendRecvFIFO(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		const msgs = 8
		for i := 0; i < msgs; i++ {
			if err := ts[0].Send(1, []byte{byte(i), byte(i * 3)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < msgs; i++ {
			got, err := ts[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0] != byte(i) || got[1] != byte(i*3) {
				t.Fatalf("message %d out of order or corrupt: %v", i, got)
			}
			ts[1].Release(got)
		}
	})
}

func TestConformancePeerValidation(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		if err := ts[0].Send(0, nil); err == nil {
			t.Fatal("expected self-send rejection")
		}
		if err := ts[0].Send(9, nil); err == nil {
			t.Fatal("expected out-of-range send rejection")
		}
		if data, err := ts[0].Recv(0); err == nil {
			ts[0].Release(data)
			t.Fatal("expected self-recv rejection")
		}
		if data, err := ts[0].Recv(-1); err == nil {
			ts[0].Release(data)
			t.Fatal("expected out-of-range recv rejection")
		}
	})
}

// --- pooled-buffer ownership --------------------------------------------

func TestConformanceLeaseDeliversBytes(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		msg := ts[0].Lease(64)
		if len(msg) != 64 {
			t.Fatalf("lease length %d, want 64", len(msg))
		}
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if err := ts[0].SendNoCopy(1, msg); err != nil {
			t.Fatal(err)
		}
		got, err := ts[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != byte(i*7) {
				t.Fatalf("byte %d: got %d want %d", i, b, byte(i*7))
			}
		}
		// Receiver-side Release must always be safe, as must double release
		// and releasing foreign or sub-sliced buffers.
		ts[1].Release(got)
		ts[1].Release(got)
		ts[1].Release(make([]byte, 32))
		if len(got) > 8 {
			//acpvet:ignore deliberate probe: releasing a sub-slice must be runtime-safe (a silent no-op), which is exactly what this asserts
			ts[1].Release(got[8:])
		}
	})
}

func TestConformanceRetainKeepsBuffer(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		buf := ts[0].Lease(48)
		buf[0] = 211
		ts[0].Retain(buf)
		ts[0].Release(buf) // no-op: already retained
		again := ts[0].Lease(48)
		if &again[:cap(again)][0] == &buf[:cap(buf)][0] {
			t.Fatal("retained buffer re-entered the pool")
		}
		if buf[0] != 211 {
			t.Fatal("retained buffer contents changed")
		}
		ts[0].Release(again)
		// Zero-length operations are safe everywhere.
		z := ts[0].Lease(0)
		ts[0].Release(z)
		ts[0].Retain(z)
	})
}

func TestConformanceLeaseRecyclesAfterRelease(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		a := ts[0].Lease(100)
		pa := &a[:cap(a)][0] // capture identity before the release invalidates a
		ts[0].Release(a)
		b := ts[0].Lease(90) // same size class
		if &b[:cap(b)][0] != pa {
			t.Fatal("release/lease did not recycle the buffer")
		}
		ts[0].Release(b)
	})
}

// --- async handle semantics ---------------------------------------------

func TestConformanceAsyncFIFO(t *testing.T) {
	const p, n, rounds = 3, 41, 4
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		inputs, want := makeInputs(p, n, 99)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				a := NewAsync(NewCommunicator(ts[r]))
				defer a.Close()
				bufs := make([][]float64, rounds)
				handles := make([]*Pending, rounds)
				for k := 0; k < rounds; k++ {
					bufs[k] = append([]float64(nil), inputs[r]...)
					handles[k] = a.AllReduceSumAsync(bufs[k], 1)
				}
				// Waiting the last handle implies all earlier ones finished:
				// launches are FIFO on one goroutine.
				if err := handles[rounds-1].Wait(); err != nil {
					errs[r] = err
					for _, tr := range ts {
						tr.Close()
					}
					return
				}
				for k := 0; k < rounds; k++ {
					if !handles[k].Done() {
						errs[r] = fmt.Errorf("handle %d not done after later handle completed", k)
						return
					}
					if err := handles[k].Wait(); err != nil {
						errs[r] = err
						return
					}
					for i := range bufs[k] {
						if math.Abs(bufs[k][i]-want[i]) > 1e-9 {
							errs[r] = fmt.Errorf("round %d elem %d: got %v want %v", k, i, bufs[k][i], want[i])
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

func TestConformanceAsyncAllGather(t *testing.T) {
	const p = 3
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				a := NewAsync(NewCommunicator(ts[r]))
				defer a.Close()
				local := []byte{byte(r + 1), byte(r + 2)}
				g := a.AllGatherAsync(local)
				gathered, err := g.Wait()
				if err != nil {
					errs[r] = err
					for _, tr := range ts {
						tr.Close()
					}
					return
				}
				defer gathered.Release()
				if !g.Done() {
					errs[r] = errors.New("Done() false after Wait returned")
					return
				}
				for q := 0; q < p; q++ {
					blob := gathered.Payload(q)
					if len(blob) != 2 || blob[0] != byte(q+1) || blob[1] != byte(q+2) {
						errs[r] = fmt.Errorf("blob %d wrong: %v", q, blob)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

// waitWithTimeout fails the test if the handle does not complete promptly —
// the conformance meaning of "close during pending must not deadlock".
func waitWithTimeout(t *testing.T, wait func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("pending operation did not complete after transport close")
		return nil
	}
}

func TestConformanceCloseDuringPending(t *testing.T) {
	const p = 3
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		// Rank 0 launches a collective its peers never join: it blocks inside
		// the transport until the group is closed underneath it.
		a := NewAsync(NewCommunicator(ts[0]))
		defer a.Close()
		stuck := a.AllReduceSumAsync(make([]float64, 64), 1)
		queued := a.AllReduceSumAsync(make([]float64, 64), 1)
		time.Sleep(10 * time.Millisecond) // let the first launch block in Recv
		for _, tr := range ts {
			tr.Close()
		}
		if err := waitWithTimeout(t, stuck.Wait); err == nil {
			t.Fatal("stuck collective reported success after close")
		}
		if err := waitWithTimeout(t, queued.Wait); err == nil {
			t.Fatal("queued collective reported success after close")
		}
		// The transport stays failed for later operations.
		if err := ts[0].Send(1, []byte{1}); err == nil {
			t.Fatal("send after close should fail")
		}
	})
}

func TestConformanceAsyncCloseFailsQueuedOps(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		a := NewAsync(NewCommunicator(ts[0]))
		// Block the launch goroutine on a collective the peer never joins,
		// then queue another op behind it and close the async layer: the
		// queued op must fail with ErrClosed without ever launching.
		stuck := a.AllReduceSumAsync(make([]float64, 8), 1)
		queued := a.AllReduceSumAsync(make([]float64, 8), 1)
		time.Sleep(5 * time.Millisecond)
		for _, tr := range ts {
			tr.Close() // unblock the in-flight launch so Close can join the loop
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := waitWithTimeout(t, stuck.Wait); err == nil {
			t.Fatal("stuck op reported success")
		}
		if err := waitWithTimeout(t, queued.Wait); err == nil {
			t.Fatal("queued op reported success")
		}
		// Submissions after Close fail immediately with ErrClosed.
		late := a.AllReduceSumAsync(make([]float64, 8), 1)
		if err := waitWithTimeout(t, late.Wait); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close submit: got %v, want ErrClosed", err)
		}
	})
}

func TestConformanceCloseIdempotentAndConcurrent(t *testing.T) {
	forEachTransport(t, 3, func(t *testing.T, ts []Transport) {
		var wg sync.WaitGroup
		for _, tr := range ts {
			wg.Add(1)
			go func(tr Transport) {
				defer wg.Done()
				if err := tr.Close(); err != nil {
					t.Error(err)
				}
				if err := tr.Close(); err != nil {
					t.Error(err)
				}
			}(tr)
		}
		wg.Wait()
	})
}

// TestConformanceRecvAfterCloseFails: closing a rank's own endpoint must
// unblock its pending Recv with an error. (Only the in-process transport
// additionally propagates one rank's Close to the whole group.)
func TestConformanceRecvAfterCloseFails(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, ts []Transport) {
		done := make(chan error, 1)
		go func() {
			data, err := ts[0].Recv(1)
			if err == nil {
				ts[0].Release(data)
			}
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		ts[0].Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("expected error from Recv after close")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Recv did not unblock after close")
		}
	})
}

// leaseAccountant is the introspection hook both transports implement for
// runtime leak accounting: the number of pool buffers on lease or in flight.
type leaseAccountant interface{ Outstanding() int }

// TestConformanceNoLeak is the runtime half of the pooled-buffer contract
// acpvet enforces statically: after a workload touching every collective
// family drains, the group holds zero outstanding leases — every buffer was
// either released back to its pool or retained out of it. p = 3 keeps the
// all-gathers on their retained shared-send branch. The contract must hold
// through the pass-through decorator stacks too (each under a pacer, as the
// benchmark stacks them), so the workload reruns on each stack while the
// accounting is read from the undecorated transports.
func TestConformanceNoLeak(t *testing.T) {
	const p = 3
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		runGroup(t, ts, noLeakWorkload)
		assertNoLeak(t, ts)
	})
	stacks := []struct {
		name string
		wrap func(Transport) Transport
	}{
		{"latency", func(t Transport) Transport { return WithLatency(t, time.Microsecond) }},
		{"fault", func(t Transport) Transport { return WithFaultAfter(t, 1<<30) }},
		{"deadline", func(t Transport) Transport { return WithDeadline(t, 10*time.Second) }},
		{"stall", func(t Transport) Transport { return WithStall(t, 1<<30) }},
		{"integrity", WithIntegrity},
	}
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			forEachTransport(t, p, func(t *testing.T, bare []Transport) {
				pacer := NewBandwidthPacer(1e12)
				ts := make([]Transport, p)
				for i := range bare {
					ts[i] = pacer.Wrap(s.wrap(bare[i]))
				}
				runGroup(t, ts, noLeakWorkload)
				assertNoLeak(t, bare)
			})
		})
	}
}

// noLeakWorkload touches every collective family once.
func noLeakWorkload(c *Communicator) error {
	const n = 257
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(c.Rank()*1000 + i)
	}
	if err := c.AllReduceSum(buf); err != nil {
		return err
	}
	if err := c.AllReduceSumPipelined(buf, 4); err != nil {
		return err
	}
	g, err := c.AllGather([]byte{byte(c.Rank()), 7, 9})
	if err != nil {
		return err
	}
	g.Release()
	err = c.AllGatherPipelined(4,
		func(i int) []byte { return []byte{byte(c.Rank()), byte(i)} },
		func(_ int, g *Gathered) error {
			g.Release()
			return nil
		})
	if err != nil {
		return err
	}
	// The trainer's chunked gather buffers: an async pipelined round,
	// fed, consumed chunk by chunk and drained.
	a := NewAsync(c)
	defer a.Close()
	for _, m := range []int{1, 4} {
		pg := NewPipelinedGather(m)
		a.LaunchPipelinedGather(pg)
		for i := 0; i < m; i++ {
			pg.Feed([]byte{byte(c.Rank()), byte(m), byte(i)})
		}
		for i := 0; i < m; i++ {
			g, err := pg.Next()
			if err != nil {
				pg.Drain()
				return err
			}
			g.Release()
		}
		pg.Drain()
	}
	return nil
}

// assertNoLeak waits for the group's lease accounting to reach zero. TCP
// send buffers recycle asynchronously (writer goroutines release them after
// the socket write), so it polls until the accounting settles.
func assertNoLeak(t *testing.T, ts []Transport) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, tr := range ts {
			acct, ok := tr.(leaseAccountant)
			if !ok {
				t.Fatalf("transport %T does not expose lease accounting", tr)
			}
			total += acct.Outstanding()
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pool buffers still outstanding after the workload drained", total)
		}
		time.Sleep(time.Millisecond)
	}
}
