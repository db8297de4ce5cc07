package comm

import (
	"math"
	"math/rand"
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

func TestTCPGroupRejectsBadSize(t *testing.T) {
	if _, err := NewTCPGroup(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewInprocGroup(-1, 0); err == nil {
		t.Fatal("expected error for negative size")
	}
}
