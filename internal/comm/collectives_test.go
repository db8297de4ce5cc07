package comm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// runGroup runs fn concurrently for every rank over fresh transports and
// fails the test on any per-rank error.
func runGroup(t *testing.T, transports []Transport, fn func(c *Communicator) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(transports))
	for r := range transports {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(NewCommunicator(transports[r]))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func makeInputs(p, n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, p)
	want := make([]float64, n)
	for r := 0; r < p; r++ {
		inputs[r] = make([]float64, n)
		for i := range inputs[r] {
			inputs[r][i] = rng.NormFloat64()
			want[i] += inputs[r][i]
		}
	}
	return inputs, want
}

func TestFloatPayloadLenRejectsBadLength(t *testing.T) {
	if err := floatPayloadLen(make([]byte, 9), 1); err == nil {
		t.Fatal("expected error for non-multiple-of-8 payload")
	}
	if err := floatPayloadLen(make([]byte, 16), 1); err == nil {
		t.Fatal("expected error for wrong element count")
	}
	if err := floatPayloadLen(make([]byte, 8), 1); err != nil {
		t.Fatalf("unexpected error for exact payload: %v", err)
	}
}

func TestChunkRangeCoversVector(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, p := range []int{1, 2, 3, 7, 32} {
			prevHi := 0
			total := 0
			for i := 0; i < p; i++ {
				lo, hi := chunkRange(n, p, i)
				if lo != prevHi {
					t.Fatalf("n=%d p=%d chunk %d: lo %d != prev hi %d", n, p, i, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d p=%d chunk %d: hi < lo", n, p, i)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n || prevHi != n {
				t.Fatalf("n=%d p=%d: chunks cover %d", n, p, total)
			}
		}
	}
}

// Property: ring all-reduce equals per-element sum for random group sizes,
// vector lengths and values.
func TestAllReduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		n := rng.Intn(50)
		transports, err := NewInprocGroup(p, 0)
		if err != nil {
			return false
		}
		inputs, want := makeInputs(p, n, seed^0x5f5f)
		ok := true
		var wg sync.WaitGroup
		var mu sync.Mutex
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := NewCommunicator(transports[r])
				buf := make([]float64, n)
				copy(buf, inputs[r])
				if err := c.AllReduceSum(buf); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				for i := range buf {
					if math.Abs(buf[i]-want[i]) > 1e-9 {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
				}
			}(r)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesSteadyStateAllocFree: once the pool is warm, the ring
// all-reduce allocates nothing on either rank at any segment count — the
// steady-state contract Communicator documents.
func TestCollectivesSteadyStateAllocFree(t *testing.T) {
	const p, n, calls = 2, 4096, 50
	// Like testing.AllocsPerRun, measure at GOMAXPROCS 1: blocked channel
	// receives draw runtime wait records from per-P caches, and a rank
	// migrating between Ps can refill one from the heap. Those are the
	// scheduler's allocations, not the collective's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			ts, err := NewInprocGroup(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range ts {
					tr.Close()
				}
			}()
			call := func(c *Communicator, buf []float64) error {
				if m == 1 {
					return c.AllReduceSum(buf)
				}
				return c.AllReduceSumPipelined(buf, m)
			}
			// Rank 1 runs on a goroutine started before the measurement;
			// each value on rounds asks it for that many calls.
			rounds, done := make(chan int), make(chan error)
			go func() {
				c, buf := NewCommunicator(ts[1]), make([]float64, n)
				for k := range rounds {
					var err error
					for i := 0; i < k && err == nil; i++ {
						err = call(c, buf)
					}
					done <- err
				}
			}()
			defer close(rounds)
			c, buf := NewCommunicator(ts[0]), make([]float64, n)
			run := func(k int) {
				rounds <- k
				for i := 0; i < k; i++ {
					if err := call(c, buf); err != nil {
						t.Fatal(err)
					}
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			// A warm pool can still grow once when scheduling pushes more
			// buffers in flight than it has seen; a per-call allocation
			// shows in every window, so the quietest of a few must read 0.
			var readings []uint64
			for len(readings) < 5 {
				run(calls)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run(calls)
				runtime.ReadMemStats(&after)
				got := after.Mallocs - before.Mallocs
				if got == 0 {
					return
				}
				readings = append(readings, got)
			}
			t.Fatalf("each window of %d calls allocated: %v objects, want a window with 0", calls, readings)
		})
	}
}

func TestTCPGroupRejectsBadSize(t *testing.T) {
	if _, err := NewTCPGroup(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewInprocGroup(-1, 0); err == nil {
		t.Fatal("expected error for negative size")
	}
}
