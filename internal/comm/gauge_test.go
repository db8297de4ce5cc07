package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"acpsgd/internal/coop"
)

// wantGaugeZero fails the test when asynchronous collectives are still
// accounted in flight: a leaked count would make every matmul kernel in the
// process yield forever.
func wantGaugeZero(t *testing.T, when string) {
	t.Helper()
	if n := coop.InFlight(); n != 0 {
		t.Fatalf("%s: in-flight gauge is %d, want 0", when, n)
	}
}

// TestAsyncGaugeHygiene: every operation an AsyncCommunicator accepts raises
// the in-flight gauge while it is queued or running, and the gauge is back
// to zero by the time the operation's handle reports completion — whether
// the operation succeeded, failed in the transport, was abandoned in the
// queue by Close (ErrClosed), or was submitted after Close.
func TestAsyncGaugeHygiene(t *testing.T) {
	wantGaugeZero(t, "before the test")

	t.Run("completed", func(t *testing.T) {
		const p, chunks = 2, 3
		ts, err := NewInprocGroup(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ts[0].Close()
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				a := NewAsync(NewCommunicator(ts[r]))
				defer a.Close()
				red := a.AllReduceSumAsync(make([]float64, 33), 1)
				piped := a.AllReduceSumAsync(make([]float64, 33), 4)
				gat := a.AllGatherAsync([]byte{byte(r)})
				pg := NewPipelinedGather(chunks)
				a.LaunchPipelinedGather(pg)
				if coop.InFlight() == 0 {
					t.Error("gauge is 0 with four operations submitted")
				}
				for c := 0; c < chunks; c++ {
					pg.Feed([]byte{byte(c)})
				}
				if err := red.Wait(); err != nil {
					t.Error(err)
				}
				if err := piped.Wait(); err != nil {
					t.Error(err)
				}
				if g, err := gat.Wait(); err != nil {
					t.Error(err)
				} else {
					g.Release()
				}
				for c := 0; c < chunks; c++ {
					g, err := pg.Next()
					if err != nil {
						t.Error(err)
						break
					}
					g.Release()
				}
				pg.Drain()
			}(r)
		}
		wg.Wait()
		wantGaugeZero(t, "after every handle completed")
	})

	t.Run("abandoned", func(t *testing.T) {
		ts, err := NewInprocGroup(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAsync(NewCommunicator(ts[0]))
		// The peer never joins: the first op blocks in the transport, the
		// others wait in the queue behind it.
		stuck := a.AllReduceSumAsync(make([]float64, 8), 1)
		queued := a.AllGatherAsync([]byte{1})
		pg := NewPipelinedGather(2)
		a.LaunchPipelinedGather(pg)
		if n := coop.InFlight(); n != 3 {
			t.Errorf("gauge is %d with three operations submitted, want 3", n)
		}
		time.Sleep(5 * time.Millisecond) // let the first launch block in Recv
		ts[0].Close()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := waitWithTimeout(t, stuck.Wait); err == nil {
			t.Error("stuck op reported success")
		}
		//acpvet:ignore an op abandoned in the queue never gathers anything to release
		if _, err := queued.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("queued op: got %v, want ErrClosed", err)
		}
		//acpvet:ignore an op abandoned in the queue never gathers anything to release
		if _, err := pg.Next(); !errors.Is(err, ErrClosed) {
			t.Errorf("queued pipelined gather: got %v, want ErrClosed", err)
		}
		pg.Drain()
		late := a.AllReduceSumAsync(make([]float64, 8), 1)
		if err := late.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("post-close submit: got %v, want ErrClosed", err)
		}
		wantGaugeZero(t, "after Close abandoned the queue")
	})
}
