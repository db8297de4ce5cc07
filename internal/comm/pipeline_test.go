package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// makePipeInputs builds deterministic per-rank inputs whose float sums are
// rounding-sensitive, so bit-identity assertions actually exercise the
// accumulation order (integers would hide association differences).
func makePipeInputs(p, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, p)
	for r := range inputs {
		inputs[r] = make([]float64, n)
		for i := range inputs[r] {
			inputs[r][i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
	}
	return inputs
}

// ringReference is the scalar oracle for the ring all-reduce: every element
// of ring chunk c is summed in ring order — the partial starts at rank c and
// each later rank adds its own value to it — which is the association the
// ring schedule must keep at every segment count.
func ringReference(inputs [][]float64, p int) []float64 {
	n := len(inputs[0])
	out := make([]float64, n)
	for c := 0; c < p; c++ {
		lo, hi := chunkRange(n, p, c)
		for i := lo; i < hi; i++ {
			acc := inputs[c][i]
			for k := 1; k < p; k++ {
				acc = inputs[(c+k)%p][i] + acc
			}
			out[i] = acc
		}
	}
	return out
}

// checkBitIdentical fails unless got matches want bit for bit.
func checkBitIdentical(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("elem %d: got %x, ring reference %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// TestConformancePipelinedAllReduceBitIdentical: the ring all-reduce must
// produce bit-for-bit the scalar ring-order sum for every segment count —
// m = 1 (the plain ring), m larger than the per-chunk element count (empty
// segments) and m above the in-flight window.
func TestConformancePipelinedAllReduceBitIdentical(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5} {
		for _, n := range []int{0, 1, 7, 33, 257, 1000} {
			for _, m := range []int{1, 2, 3, 8, 16, 64} {
				t.Run(fmt.Sprintf("p=%d/n=%d/m=%d", p, n, m), func(t *testing.T) {
					forEachTransport(t, p, func(t *testing.T, ts []Transport) {
						inputs := makePipeInputs(p, n, int64(p*100000+n*100+m))
						want := ringReference(inputs, p)
						runGroup(t, ts, func(c *Communicator) error {
							buf := append([]float64(nil), inputs[c.Rank()]...)
							if err := c.AllReduceSumPipelined(buf, m); err != nil {
								return err
							}
							return checkBitIdentical(buf, want)
						})
					})
				})
			}
		}
	}
}

// TestConformancePipelinedAllReduceAsync drives the ring through the async
// launch queue at several segment counts back to back, checking the FIFO
// schedule holds and every launch matches the scalar ring reference.
func TestConformancePipelinedAllReduceAsync(t *testing.T) {
	const p, n = 3, 129
	segments := []int{4, 1, 16}
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		inputs := makePipeInputs(p, n, 77)
		want := ringReference(inputs, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				a := NewAsync(NewCommunicator(ts[r]))
				defer a.Close()
				bufs := make([][]float64, len(segments))
				handles := make([]*Pending, len(segments))
				for k, m := range segments {
					bufs[k] = append([]float64(nil), inputs[r]...)
					handles[k] = a.AllReduceSumAsync(bufs[k], m)
				}
				for k, h := range handles {
					if err := h.Wait(); err != nil {
						if errs[r] == nil {
							errs[r] = err
							// Unblock the later collectives before draining them.
							for _, tr := range ts {
								tr.Close()
							}
						}
						continue
					}
					if errs[r] == nil {
						if err := checkBitIdentical(bufs[k], want); err != nil {
							errs[r] = fmt.Errorf("m=%d: %w", segments[k], err)
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

// TestConformanceAllGatherPipelined: chunked gather with per-rank,
// per-chunk variable payload sizes (empty chunks included) must deliver
// every chunk's payloads in chunk order with source called lazily in order.
func TestConformanceAllGatherPipelined(t *testing.T) {
	const p = 4
	for _, m := range []int{1, 3, 13} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			forEachTransport(t, p, func(t *testing.T, ts []Transport) {
				chunkLen := func(r, i int) int { return (r + i) % 3 * 2 } // 0, 2 or 4 bytes
				chunkByte := func(r, i, j int) byte { return byte(r*50 + i*5 + j) }
				runGroup(t, ts, func(c *Communicator) error {
					r := c.Rank()
					nextSource := 0
					source := func(i int) []byte {
						if i != nextSource {
							return nil // triggers a verification failure below
						}
						nextSource++
						blob := make([]byte, chunkLen(r, i))
						for j := range blob {
							blob[j] = chunkByte(r, i, j)
						}
						return blob
					}
					seen := 0
					sink := func(i int, g *Gathered) error {
						defer g.Release()
						if i != seen {
							return fmt.Errorf("sink chunk %d before chunk %d", i, seen)
						}
						seen++
						if g.Ranks() != p {
							return fmt.Errorf("chunk %d has %d ranks", i, g.Ranks())
						}
						for q := 0; q < p; q++ {
							blob := g.Payload(q)
							if len(blob) != chunkLen(q, i) {
								return fmt.Errorf("chunk %d rank %d: len %d want %d", i, q, len(blob), chunkLen(q, i))
							}
							for j, b := range blob {
								if b != chunkByte(q, i, j) {
									return fmt.Errorf("chunk %d rank %d byte %d: got %d", i, q, j, b)
								}
							}
						}
						return nil
					}
					if err := c.AllGatherPipelined(m, source, sink); err != nil {
						return err
					}
					if seen != m || nextSource != m {
						return fmt.Errorf("saw %d chunks, produced %d, want %d", seen, nextSource, m)
					}
					return nil
				})
			})
		})
	}
}

// TestConformancePipelinedCloseDuringFlight: closing the group while a
// pipelined collective is mid-flight must fail it promptly, never deadlock.
func TestConformancePipelinedCloseDuringFlight(t *testing.T) {
	const p = 3
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		// Rank 0 runs alone: its peers never join, so it blocks inside the
		// pipelined schedule until the group is closed underneath it.
		a := NewAsync(NewCommunicator(ts[0]))
		defer a.Close()
		stuck := a.AllReduceSumAsync(make([]float64, 999), 4)
		time.Sleep(10 * time.Millisecond)
		for _, tr := range ts {
			tr.Close()
		}
		if err := waitWithTimeout(t, stuck.Wait); err == nil {
			t.Fatal("pipelined collective reported success after close")
		}
	})
}

// TestPipelinedFaultInjection: a transport that starts failing mid-pipeline
// must surface the injected fault on the faulty rank and abort the group
// (peers fail fast once the group is torn down) without deadlock.
func TestPipelinedFaultInjection(t *testing.T) {
	const p, n, m = 3, 257, 4
	for _, budget := range []int{0, 1, 5, 11} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			base, err := NewInprocGroup(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			ts := make([]Transport, p)
			copy(ts, base)
			ts[1] = WithFaultAfter(ts[1], budget)
			t.Cleanup(func() {
				for _, tr := range ts {
					tr.Close()
				}
			})
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := NewCommunicator(ts[r])
					done := make(chan error, 1)
					go func() { done <- c.AllReduceSumPipelined(make([]float64, n), m) }()
					select {
					case errs[r] = <-done:
					case <-time.After(10 * time.Second):
						errs[r] = errors.New("deadlocked")
					}
					if errs[r] != nil {
						ts[r].Close() // abort the group, as the trainer does
					}
				}(r)
			}
			wg.Wait()
			if errs[1] == nil {
				t.Fatal("faulty rank reported success")
			}
			if !errors.Is(errs[1], ErrInjected) {
				t.Fatalf("faulty rank: got %v, want ErrInjected", errs[1])
			}
			for r, err := range errs {
				if err != nil && err.Error() == "deadlocked" {
					t.Fatalf("rank %d deadlocked", r)
				}
			}
		})
	}
}

// TestGatheredLazyPack: per-rank views must be served without a pack copy,
// and Bytes() must lazily assemble the contiguous region with offsets
// delimiting the same payloads.
func TestGatheredLazyPack(t *testing.T) {
	const p = 3
	forEachTransport(t, p, func(t *testing.T, ts []Transport) {
		runGroup(t, ts, func(c *Communicator) error {
			r := c.Rank()
			local := make([]byte, 4+r)
			for i := range local {
				local[i] = byte(r*20 + i)
			}
			g, err := c.AllGather(local)
			if err != nil {
				return err
			}
			defer g.Release()
			// Views first (the no-copy path)…
			for q := 0; q < p; q++ {
				blob := g.Payload(q)
				if len(blob) != 4+q {
					return fmt.Errorf("rank %d view len %d, want %d", q, len(blob), 4+q)
				}
			}
			// …then the lazily packed region must agree byte for byte.
			region := g.Bytes()
			offs := g.Offsets()
			if len(region) != offs[p] {
				return fmt.Errorf("region %d bytes, offsets end at %d", len(region), offs[p])
			}
			for q := 0; q < p; q++ {
				blob := region[offs[q]:offs[q+1]]
				for i, b := range blob {
					if b != byte(q*20+i) {
						return fmt.Errorf("packed rank %d byte %d: got %d", q, i, b)
					}
				}
				if view := g.Payload(q); &view[0] != &blob[0] {
					return fmt.Errorf("rank %d view does not alias the packed region", q)
				}
			}
			return nil
		})
	})
}
