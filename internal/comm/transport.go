// Package comm implements the communication substrate the paper's methods
// run on: point-to-point transports (in-process channels and TCP via the
// stdlib net package) and the collective operations distributed S-SGD and
// gradient compression rely on — ring all-reduce (reduce-scatter +
// all-gather phases, the bandwidth-optimal algorithm NCCL uses) and
// all-gather for non-additive compressed payloads (Sign-SGD, Top-k), each
// with a chunk-pipelined variant.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("comm: transport closed")

// Transport provides FIFO point-to-point messaging between the ranks of a
// fixed-size group. Implementations must guarantee that Send does not block
// waiting for the peer to call Recv (internal buffering), so that collective
// schedules may post all sends of a step before receiving. A Transport value
// is owned by a single rank; methods are not safe for concurrent use except
// where documented (Lease/SendNoCopy/Release/Retain are safe to call
// concurrently with each other across goroutines — the buffer pool is
// internally synchronized).
//
// # Pooled-buffer contract
//
// The Lease/SendNoCopy/Release/Retain quartet makes steady-state collectives
// allocation-free. The ownership rules are:
//
//   - Lease(n) hands the caller an n-byte buffer with unspecified contents.
//   - SendNoCopy transfers ownership of a leased buffer to the transport
//     without copying. After it returns the sender must not read or write
//     the buffer again.
//   - A slice returned by Recv is owned by the receiver but must be treated
//     as READ-ONLY (a zero-copy transport may deliver the same bytes to
//     several ranks). When done, the receiver either calls Release to
//     recycle it, or Retain to keep it indefinitely (the pool then forgets
//     it). Retaining without either call is legal but forfeits reuse.
//   - Release and Retain ignore buffers the pool does not know, so they are
//     always safe to call on whatever Recv returned.
//   - To deliver one leased buffer to several peers, call Retain first and
//     then SendNoCopy per peer; receivers see shared read-only bytes.
type Transport interface {
	// Rank returns this participant's rank in [0, Size).
	Rank() int
	// Size returns the number of participants.
	Size() int
	// Send enqueues data for delivery to rank `to`. The slice is owned by
	// the transport after the call returns.
	Send(to int, data []byte) error
	// Recv blocks until the next message from rank `from` arrives and
	// returns it. See the pooled-buffer contract for ownership rules.
	Recv(from int) ([]byte, error)
	// Lease returns an n-byte buffer from the transport's pool for use with
	// SendNoCopy.
	Lease(n int) []byte
	// SendNoCopy enqueues a leased buffer for delivery to rank `to` without
	// copying it; ownership transfers to the transport (and ultimately the
	// receiver).
	SendNoCopy(to int, buf []byte) error
	// Release returns a leased or received buffer to the pool. No-op for
	// unknown buffers.
	Release(buf []byte)
	// Retain removes a leased or received buffer from pool tracking so the
	// caller may keep it. No-op for unknown buffers.
	Retain(buf []byte)
	// Close releases transport resources. Pending Recv calls fail.
	Close() error
}

// inprocGroup is the shared state of an in-process transport group: a full
// mesh of buffered channels plus one shared buffer pool. Messages cross
// rank boundaries by reference, so a buffer released by its receiver is
// immediately reusable by any sender — the ring schedule recirculates the
// same handful of chunk buffers forever.
type inprocGroup struct {
	size      int
	chans     [][]chan []byte // chans[from][to]
	done      chan struct{}
	closeOnce sync.Once
	pool      *bufPool
}

// inprocTransport is one rank's endpoint of an inprocGroup.
type inprocTransport struct {
	g    *inprocGroup
	rank int
}

// NewInprocGroup creates an in-process transport group of p ranks backed by
// buffered Go channels. It returns one Transport per rank. buffering is the
// per-pair channel capacity; values <= 0 default to 64 messages, ample for
// ring schedules where at most one message per pair per step is in flight.
func NewInprocGroup(p, buffering int) ([]Transport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("comm: group size must be positive, got %d", p)
	}
	if buffering <= 0 {
		buffering = 64
	}
	g := &inprocGroup{
		size:  p,
		chans: make([][]chan []byte, p),
		done:  make(chan struct{}),
		pool:  newBufPool(),
	}
	for i := 0; i < p; i++ {
		g.chans[i] = make([]chan []byte, p)
		for j := 0; j < p; j++ {
			if i != j {
				g.chans[i][j] = make(chan []byte, buffering)
			}
		}
	}
	out := make([]Transport, p)
	for r := 0; r < p; r++ {
		out[r] = &inprocTransport{g: g, rank: r}
	}
	return out, nil
}

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return t.g.size }

func (t *inprocTransport) Send(to int, data []byte) error { return t.SendTimeout(to, data, 0) }

func (t *inprocTransport) Recv(from int) ([]byte, error) { return t.RecvTimeout(from, 0) }

// SendTimeout bounds the (normally buffered, but finite) send on the inproc
// transport; d <= 0 never times out. On timeout the message was not
// consumed and stays owned by the caller.
func (t *inprocTransport) SendTimeout(to int, data []byte, d time.Duration) error {
	if err := t.checkPeer(to); err != nil {
		return err
	}
	select {
	case <-t.g.done:
		// Check first: the buffered channel would otherwise accept the
		// message of a closed group (select picks ready cases at random).
		return ErrClosed
	default:
	}
	timeout, stop := idleTimer(d)
	defer stop()
	select {
	case t.g.chans[t.rank][to] <- data:
		return nil
	case <-t.g.done:
		return ErrClosed
	case <-timeout:
		return &DeadlineError{Op: "send", Peer: to, Idle: d}
	}
}

// RecvTimeout bounds a receive on the inproc transport; d <= 0 never times
// out.
func (t *inprocTransport) RecvTimeout(from int, d time.Duration) ([]byte, error) {
	if err := t.checkPeer(from); err != nil {
		return nil, err
	}
	timeout, stop := idleTimer(d)
	defer stop()
	select {
	case data := <-t.g.chans[from][t.rank]:
		return data, nil
	case <-t.g.done:
		// Drain any message that raced with close.
		select {
		case data := <-t.g.chans[from][t.rank]:
			return data, nil
		default:
		}
		return nil, ErrClosed
	case <-timeout:
		return nil, &DeadlineError{Op: "recv", Peer: from, Idle: d}
	}
}

// Lease draws from the group-shared pool.
func (t *inprocTransport) Lease(n int) []byte { return t.g.pool.lease(n) }

// SendNoCopy is identical to Send for the in-process transport: messages
// already travel by reference. It exists to satisfy the pooled-buffer
// contract — callers route leased buffers through it so the receiving rank's
// Release feeds the shared pool.
func (t *inprocTransport) SendNoCopy(to int, buf []byte) error { return t.Send(to, buf) }

// Release recycles a leased or received buffer into the group pool.
func (t *inprocTransport) Release(buf []byte) { t.g.pool.release(buf) }

// Retain removes a buffer from pool tracking so the caller may keep it.
func (t *inprocTransport) Retain(buf []byte) { t.g.pool.retain(buf) }

// Outstanding reports the group's pool buffers still on lease or in flight
// (the pool is shared group-wide, so every rank reports the same number).
// Zero after a drained workload is the runtime half of the pooled-buffer
// contract; TestConformanceNoLeak asserts it per group.
func (t *inprocTransport) Outstanding() int { return t.g.pool.outstanding() }

func (t *inprocTransport) checkPeer(peer int) error {
	if peer < 0 || peer >= t.g.size {
		return fmt.Errorf("comm: peer rank %d out of range [0,%d)", peer, t.g.size)
	}
	if peer == t.rank {
		return fmt.Errorf("comm: rank %d cannot message itself", t.rank)
	}
	return nil
}

// Close shuts the whole group down. Closing any endpoint closes the group;
// this mirrors collective job semantics where one failed rank aborts all.
// Safe to call concurrently from several ranks (simultaneous failure is the
// common case under lockstep collective schedules).
func (t *inprocTransport) Close() error {
	t.g.closeOnce.Do(func() { close(t.g.done) })
	return nil
}
