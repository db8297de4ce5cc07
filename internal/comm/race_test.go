package comm

import (
	"bytes"
	"sync"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/tensor"
)

// TestBufPoolRecycles covers the lease/release/retain state machine.
func TestBufPoolRecycles(t *testing.T) {
	p := newBufPool()

	// Lease-release-lease must reuse the same backing array.
	a := p.lease(100)
	if len(a) != 100 {
		t.Fatalf("lease length %d, want 100", len(a))
	}
	a[0] = 42
	p.release(a)
	b := p.lease(90) // same size class
	if &b[:cap(b)][0] != &a[:cap(a)][0] {
		t.Error("release/lease did not recycle the buffer")
	}

	// Retained buffers never come back.
	p.retain(b)
	p.release(b) // no-op: already retained
	c := p.lease(90)
	if &c[:cap(c)][0] == &b[:cap(b)][0] {
		t.Error("retained buffer re-entered the pool")
	}

	// Foreign and sub-sliced buffers are ignored.
	p.release(make([]byte, 64))
	d := p.lease(64)
	p.release(d[8:]) // sub-slice: unknown base pointer
	p.release(d)     // the real one still recycles
	e := p.lease(64)
	if &e[:cap(e)][0] != &d[:cap(d)][0] {
		t.Error("release after sub-slice no-op did not recycle")
	}

	// Zero-length leases are safe everywhere.
	z := p.lease(0)
	p.release(z)
	p.retain(z)
}

// TestBufPoolHeadroom: a power-of-two payload plus a small trailer (the
// segment tag) must stay in the payload's own class — recycled, and with a
// capacity below the next power of two.
func TestBufPoolHeadroom(t *testing.T) {
	p := newBufPool()
	for _, k := range []int{7, 10, 16} {
		n := 1<<k + pipeTagBytes
		a := p.lease(n)
		p.release(a)
		b := p.lease(n)
		if &b[:cap(b)][0] != &a[:cap(a)][0] {
			t.Errorf("2^%d+%d: second lease did not reuse the buffer", k, pipeTagBytes)
		}
		if cap(b) >= 1<<(k+1) {
			t.Errorf("2^%d+%d: cap %d, want below 2^%d", k, pipeTagBytes, cap(b), k+1)
		}
		p.release(b)
	}
}

// compressCollectives adapts *Communicator to compress.Collectives the way
// the trainer does (interface-typed Gathered result).
type compressCollectives struct{ c *Communicator }

func (a compressCollectives) AllReduceSum(buf []float64) error { return a.c.AllReduceSum(buf) }
func (a compressCollectives) AllGather(local []byte) (compress.Gathered, error) {
	g, err := a.c.AllGather(local)
	if err != nil {
		return nil, err
	}
	return g, nil
}
func (a compressCollectives) Size() int { return a.c.Size() }

// trainStepRace runs a compressed data-parallel "training step" on every
// rank concurrently: parallel matmuls (Power-SGD compress) over the shared
// tensor worker pool, interleaved with ring all-reduces and a Sign-SGD
// all-gather on the same communicator. With -race this exercises the
// pooled-buffer handoff between ranks and the kernel shard handoff between
// pool workers in the exact pattern the trainer produces.
func trainStepRace(t *testing.T, transports []Transport) {
	t.Helper()
	defer tensor.SetParallelism(tensor.SetParallelism(4))
	defer tensor.SetParallelThreshold(tensor.SetParallelThreshold(1))

	const (
		workers = 4
		n, m, r = 32, 24, 4
		steps   = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// On failure, tear the whole group down so peer ranks blocked
			// in Recv fail fast instead of deadlocking the suite (closing
			// one TCP endpoint alone would not wake a peer's Recv).
			fail := func(err error) {
				errCh <- err
				for _, tr := range transports {
					tr.Close()
				}
			}
			c := NewCommunicator(transports[rank])
			ps := compress.NewPowerSGD(n, m, r, true, 1)
			sg := compress.NewSign(n*m, true)
			grad := make([]float64, n*m)
			signOut := make([]float64, n*m)
			for s := 0; s < steps; s++ {
				for i := range grad {
					grad[i] = float64(rank+1) * float64(i%7)
				}
				// Low-rank path: two ring all-reduces with parallel matmul
				// and orthogonalization between them.
				if err := ps.CompressStep(s, grad, compressCollectives{c}); err != nil {
					fail(err)
					return
				}
				// Gather path: payloads packed into a pooled region per rank.
				gathered, err := c.AllGather(sg.Encode(s, grad))
				if err != nil {
					fail(err)
					return
				}
				err = sg.Decode(s, gathered.Payloads(), signOut)
				gathered.Release()
				if err != nil {
					fail(err)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestTrainStepRaceInproc(t *testing.T) {
	transports, err := NewInprocGroup(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer transports[0].Close()
	trainStepRace(t, transports)
}

func TestTrainStepRaceTCP(t *testing.T) {
	transports, err := NewTCPGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range transports {
			tr.Close()
		}
	}()
	trainStepRace(t, transports)
}

// TestAllGatherSharedPayloads verifies the all-gather delivers every rank's
// payload intact even though the in-process transport shares one transit
// buffer among all receivers: each rank packs its own pooled region while
// the peers are still reading the shared bytes, and the caller's local
// slice may be reused immediately after the call (the region owns a copy).
func TestAllGatherSharedPayloads(t *testing.T) {
	const p = 4
	transports, err := NewInprocGroup(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer transports[0].Close()
	results := make([]*Gathered, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewCommunicator(transports[r])
			local := bytes.Repeat([]byte{byte(r + 1)}, 16+r)
			out, err := c.AllGather(local)
			if err != nil {
				t.Error(err)
				return
			}
			clear(local) // views must not alias the caller's payload
			results[r] = out
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		for src := 0; src < p; src++ {
			want := bytes.Repeat([]byte{byte(src + 1)}, 16+src)
			if !bytes.Equal(results[r].Payload(src), want) {
				t.Errorf("rank %d payload from %d: got %v want %v", r, src, results[r].Payload(src), want)
			}
		}
		results[r].Release()
	}
}

// TestRingAllReduceSteadyStateAllocFree leases and releases through enough
// iterations that the pool must have converged, then checks the free lists
// are actually being hit (no unbounded growth of outstanding buffers).
func TestRingAllReduceSteadyStateAllocFree(t *testing.T) {
	const p = 4
	transports, err := NewInprocGroup(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer transports[0].Close()
	comms := make([]*Communicator, p)
	bufs := make([][]float64, p)
	for r := 0; r < p; r++ {
		comms[r] = NewCommunicator(transports[r])
		bufs[r] = make([]float64, 4096)
	}
	round := func() {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := comms[r].AllReduceSum(bufs[r]); err != nil {
					t.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
	for i := 0; i < 3; i++ {
		round() // warm the pool
	}
	g := transports[0].(*inprocTransport).g
	g.pool.mu.Lock()
	outstandingAfterWarmup := len(g.pool.out)
	g.pool.mu.Unlock()
	for i := 0; i < 20; i++ {
		round()
	}
	g.pool.mu.Lock()
	outstanding := len(g.pool.out)
	g.pool.mu.Unlock()
	if outstanding > outstandingAfterWarmup+p {
		t.Errorf("outstanding pool buffers grew from %d to %d: collectives are leaking leases",
			outstandingAfterWarmup, outstanding)
	}
}
