package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"acpsgd/internal/coop"
)

// Pending is the handle of an in-flight asynchronous collective launched by
// an AsyncCommunicator. Wait blocks until the operation completes and returns
// its error; it may be called from any goroutine and any number of times.
type Pending struct {
	done chan struct{}
	err  error
}

// Wait blocks until the collective completes and returns its error.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Done reports, without blocking, whether the collective has completed.
func (p *Pending) Done() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *Pending) finish(err error) {
	p.err = err
	close(p.done)
}

// GatherPending is the handle of an in-flight asynchronous all-gather; its
// Wait additionally returns the gathered result (caller-owned until its
// Release — see Communicator.AllGather).
type GatherPending struct {
	p Pending
	g *Gathered
}

// Wait blocks until the all-gather completes and returns the gathered
// result (nil on error).
func (g *GatherPending) Wait() (*Gathered, error) {
	<-g.p.done
	return g.g, g.p.err
}

// Done reports, without blocking, whether the all-gather has completed.
func (g *GatherPending) Done() bool { return g.p.Done() }

// asyncOp is one queued collective: run executes it, finish completes its
// handle. finish is called exactly once per submitted op — with run's error
// when the op launches, or with ErrClosed when the communicator shuts down
// before the op reaches the front of the queue.
type asyncOp struct {
	run    func() error
	finish func(error)
}

// complete finishes a queued op's handle. The op leaves the in-flight gauge
// (see package coop) first, so a caller that has waited every handle it holds
// observes the gauge without its operations.
func (op asyncOp) complete(err error) {
	coop.End()
	op.finish(err)
}

// AsyncCommunicator layers handle-based asynchronous collectives over a
// Communicator. Operations submitted from any goroutine are launched one at
// a time, in submission order, on a dedicated communication goroutine — the
// deterministic FIFO launch schedule SPMD collectives require (every rank
// must issue the same collectives in the same order), mirroring how the
// paper serializes NCCL launches on a communication stream.
//
// There are three launches: AllReduceSumAsync(buf, m) runs the ring
// all-reduce at any segment count (m <= 1 unpipelined), AllGatherAsync runs
// one unchunked gather, and LaunchPipelinedGather runs a gather fed chunk by
// chunk through a PipelinedGather handle.
//
// The payload path is the Communicator's: leased send buffers, SendNoCopy,
// fused decode+reduce — steady-state collectives stay allocation-free; each
// submission allocates only its small Pending handle.
//
// The AsyncCommunicator owns the process-wide in-flight gauge of package
// coop: every queued operation (pipelined gathers included) raises it at
// submit and lowers it when its handle finishes, whether it ran, failed or
// was abandoned with ErrClosed. While the gauge is up the compute stream
// yields at its work quanta, which is what lets this goroutine run without a
// spare P.
//
// Shutdown: Close stops the launch loop and fails every queued-but-
// unlaunched operation with ErrClosed, so Wait never deadlocks on an
// abandoned handle. An operation already blocked inside the transport is
// unblocked by closing the underlying Transport (whose pending Recvs then
// fail); close the transport before (or instead of) waiting on stuck
// handles — Close itself waits for the launch loop to exit.
type AsyncCommunicator struct {
	c *Communicator

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []asyncOp
	closed bool

	loopDone chan struct{}
}

// NewAsync wraps a Communicator with an asynchronous launch queue. The
// returned AsyncCommunicator owns a background goroutine; release it with
// Close.
func NewAsync(c *Communicator) *AsyncCommunicator {
	a := &AsyncCommunicator{c: c, loopDone: make(chan struct{})}
	a.cond = sync.NewCond(&a.mu)
	go a.loop()
	return a
}

// AllReduceSumAsync launches AllReduceSumPipelined(buf, m) on the
// communication goroutine and returns immediately; m <= 1 is the plain
// ring. buf is owned by the transport until the returned handle's Wait
// returns. The result is bit-identical for every m.
func (a *AsyncCommunicator) AllReduceSumAsync(buf []float64, m int) *Pending {
	p := &Pending{done: make(chan struct{})}
	a.submit(asyncOp{
		run:    func() error { return a.c.AllReduceSumPipelined(buf, m) },
		finish: p.finish,
	})
	return p
}

// PipelinedGather is the handle of a chunk-pipelined all-gather: the caller
// feeds local chunk blobs as it produces them (Feed) and consumes each
// chunk's gathered result in chunk order (Next) while later chunks are
// still in flight. The underlying collective posts every chunk's sends the
// moment its blob is fed — without waiting for earlier chunks' receives —
// which is what distinguishes it from submitting m independent all-gathers
// on the FIFO launch queue (there, chunk c+1's sends would queue behind
// chunk c's receive and the wire would drain in lockstep with the
// consumer).
//
// Contract: exactly m chunks must be fed; Feed never blocks (the feed
// buffer holds all m chunks), and the fed blob must stay valid until the
// chunk's result is consumed. Next must be called at most m times; after an
// error it returns the collective's failure. Call Drain when abandoning the
// handle early so undelivered chunk results release their pooled regions.
type PipelinedGather struct {
	m        int
	feed     chan []byte
	out      chan *Gathered
	p        Pending
	launched atomic.Bool
}

// NewPipelinedGather builds a detached m-chunk gather handle. It performs no
// communication until launched (AsyncCommunicator.LaunchPipelinedGather), so
// the deferred-launch (overlap-off) schedule can create and feed it during
// backward and replay the launch later.
func NewPipelinedGather(m int) *PipelinedGather {
	return &PipelinedGather{
		m:    m,
		feed: make(chan []byte, m),
		out:  make(chan *Gathered, m),
		p:    Pending{done: make(chan struct{})},
	}
}

// Feed supplies the next chunk's local blob. Never blocks before m chunks.
func (g *PipelinedGather) Feed(blob []byte) { g.feed <- blob }

// Next blocks until the next chunk's gathered result lands and returns it
// (caller-owned until its Release). After the collective fails — or is
// abandoned by a communicator shutdown — it returns the error instead.
func (g *PipelinedGather) Next() (*Gathered, error) {
	if gathered, ok := <-g.out; ok {
		return gathered, nil
	}
	if err := g.p.Wait(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("comm: pipelined gather: Next called more than %d times", g.m)
}

// Drain waits for the collective to settle and releases any chunk results
// the consumer never took, so pooled regions cannot leak after an error. A
// handle that was never launched has nothing in flight and drains
// immediately (only call Drain once the launch decision is final — a
// concurrent Launch races the no-op return).
func (g *PipelinedGather) Drain() {
	if !g.launched.Load() {
		return
	}
	<-g.p.done
	for gathered := range g.out {
		gathered.Release()
	}
}

// LaunchPipelinedGather submits the handle's collective to the FIFO launch
// queue. The communication goroutine pulls chunk blobs from the feed as the
// producer supplies them and delivers each chunk's gathered result through
// the handle as soon as every rank's chunk lands.
func (a *AsyncCommunicator) LaunchPipelinedGather(g *PipelinedGather) {
	g.launched.Store(true)
	a.submit(asyncOp{
		run: func() error {
			return a.c.AllGatherPipelined(g.m,
				func(int) []byte { return <-g.feed },
				func(_ int, gathered *Gathered) error {
					g.out <- gathered // never blocks: buffer holds all m results
					return nil
				})
		},
		finish: func(err error) {
			g.p.finish(err)
			close(g.out)
		},
	})
}

// AllGatherAsync launches AllGather(local) on the communication goroutine
// and returns immediately. local is owned by the transport until the
// returned handle's Wait returns.
func (a *AsyncCommunicator) AllGatherAsync(local []byte) *GatherPending {
	g := &GatherPending{p: Pending{done: make(chan struct{})}}
	a.submit(asyncOp{
		run: func() error {
			gathered, err := a.c.AllGather(local)
			g.g = gathered
			return err
		},
		finish: g.p.finish,
	})
	return g
}

// submit enqueues an operation, failing it immediately when the communicator
// is already closed. The queue is unbounded so submission never blocks the
// caller (the backward pass must stay wait-free).
func (a *AsyncCommunicator) submit(op asyncOp) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		op.finish(ErrClosed)
		return
	}
	coop.Begin()
	a.queue = append(a.queue, op)
	a.cond.Signal()
	a.mu.Unlock()
}

// loop launches queued operations in FIFO order until Close. On shutdown,
// operations still queued are failed with ErrClosed without being launched
// (launching half a shutdown's worth of collectives would desynchronize the
// group).
func (a *AsyncCommunicator) loop() {
	defer close(a.loopDone)
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.closed {
			a.cond.Wait()
		}
		if a.closed {
			pending := a.queue
			a.queue = nil
			a.mu.Unlock()
			for _, op := range pending {
				op.complete(ErrClosed)
			}
			return
		}
		op := a.queue[0]
		a.queue = a.queue[1:]
		a.mu.Unlock()
		op.complete(op.run())
	}
}

// Close stops the launch loop, fails queued operations with ErrClosed and
// waits for the loop goroutine to exit. It does not close the underlying
// transport. Safe to call more than once.
func (a *AsyncCommunicator) Close() error {
	a.mu.Lock()
	a.closed = true
	a.cond.Signal()
	a.mu.Unlock()
	<-a.loopDone
	return nil
}
