package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the package's one Transport decorator and the link
// models and fault injectors built on it here: WithLatency and
// BandwidthPacer (the alpha and beta terms of the alpha-beta network
// model), WithFaultAfter (a terminal fault budget) and WithFlaky (seeded
// transient faults). WithDeadline and WithStall live in deadline.go,
// WithCorrupt and WithIntegrity in corrupt.go. Every one of them is a
// *decorator with hooks built once at construction, so the pooled-buffer
// contract is forwarded verbatim to the wrapped transport.

// ErrInjected is the sentinel wrapped by every failure a fault-injected
// transport produces; test assertions match it with errors.Is.
var ErrInjected = errors.New("comm: injected fault")

// decorator is a pass-through Transport with optional send, recv and close
// hooks. An unset hook, and every other method, forwards to the embedded
// transport. Send is SendNoCopy: the two are one operation on every
// transport in this package, because ownership passes to the transport
// either way and Release ignores buffers the pool does not know.
type decorator struct {
	Transport
	send  func(to int, buf []byte) error
	recv  func(from int) ([]byte, error)
	close func() error
}

func (d *decorator) Send(to int, data []byte) error { return d.SendNoCopy(to, data) }

func (d *decorator) SendNoCopy(to int, buf []byte) error {
	if d.send != nil {
		return d.send(to, buf)
	}
	return d.Transport.SendNoCopy(to, buf)
}

func (d *decorator) Recv(from int) ([]byte, error) {
	if d.recv != nil {
		return d.recv(from)
	}
	return d.Transport.Recv(from)
}

func (d *decorator) Close() error {
	if d.close != nil {
		return d.close()
	}
	return d.Transport.Close()
}

// gated decorates t with a check that runs before every send and receive.
// A failing check fails the op before it reaches t, so a failed send leaves
// the buffer with the caller and a failed Recv consumes nothing.
func gated(t Transport, check func(op string, peer int) error) *decorator {
	return &decorator{
		Transport: t,
		send: func(to int, buf []byte) error {
			if err := check("send", to); err != nil {
				return err
			}
			return t.SendNoCopy(to, buf)
		},
		recv: func(from int) ([]byte, error) {
			if err := check("recv", from); err != nil {
				return nil, err
			}
			return t.Recv(from)
		},
	}
}

// WithLatency wraps t so every Recv completes no earlier than delay after
// the message is consumed — the alpha term of the alpha-beta network model
// applied per hop. A non-positive delay returns t unchanged.
func WithLatency(t Transport, delay time.Duration) Transport {
	if delay <= 0 {
		return t
	}
	return &decorator{Transport: t, recv: func(from int) ([]byte, error) {
		data, err := t.Recv(from)
		if err != nil {
			return nil, err
		}
		time.Sleep(delay)
		return data, nil
	}}
}

// BandwidthPacer models the transmission (beta) term of the alpha-beta
// network model for a whole transport group: every directed link is a pipe
// that transmits at bytesPerSec. Send stamps each message with the absolute
// time its last byte leaves the modeled wire (the link's clock advances by
// len/bytesPerSec from max(clock, now), so back-to-back messages queue and
// an idle link earns no credit), and Recv simply waits until the stamped
// deadline — transit runs "in the background" while ranks compute, exactly
// like a real NIC, so a chunked schedule is charged the same wire time as an
// unpipelined one, not a per-message sleep-granularity tax (OS timers are
// ~1ms-coarse on server kernels; absolute deadlines make overshoot
// self-correcting).
//
// One pacer is shared by the group: wrap every rank's transport with Wrap
// before use. The wrapped transports delegate everything else (including the
// pooled-buffer contract) to the underlying transport.
type BandwidthPacer struct {
	bytesPerSec float64

	mu    sync.Mutex
	links map[[2]int]*linkPipe
}

// linkPipe is one directed link's modeled wire: the time its queued bytes
// finish transmitting, plus the FIFO of per-message delivery deadlines.
type linkPipe struct {
	clock     time.Time
	deadlines []time.Time
}

// NewBandwidthPacer builds a pacer for links of bytesPerSec.
func NewBandwidthPacer(bytesPerSec float64) *BandwidthPacer {
	return &BandwidthPacer{bytesPerSec: bytesPerSec, links: make(map[[2]int]*linkPipe)}
}

// Wrap decorates one rank's transport with the shared pacing. A
// non-positive rate returns t unchanged.
func (p *BandwidthPacer) Wrap(t Transport) Transport {
	if p.bytesPerSec <= 0 {
		return t
	}
	rank := t.Rank()
	return &decorator{
		Transport: t,
		send: func(to int, buf []byte) error {
			p.stamp(rank, to, len(buf))
			return t.SendNoCopy(to, buf)
		},
		recv: func(from int) ([]byte, error) {
			data, err := t.Recv(from)
			if err != nil {
				return nil, err
			}
			if d := time.Until(p.take(from, rank)); d > 0 {
				time.Sleep(d)
			}
			return data, nil
		},
	}
}

// stamp queues a message's delivery deadline on the from→to link.
func (p *BandwidthPacer) stamp(from, to, bytes int) {
	now := time.Now()
	p.mu.Lock()
	key := [2]int{from, to}
	l := p.links[key]
	if l == nil {
		l = &linkPipe{}
		p.links[key] = l
	}
	if l.clock.Before(now) {
		l.clock = now
	}
	l.clock = l.clock.Add(time.Duration(float64(bytes) / p.bytesPerSec * float64(time.Second)))
	l.deadlines = append(l.deadlines, l.clock)
	p.mu.Unlock()
}

// take pops the next delivery deadline of the from→to link (zero time when
// the message predates wrapping).
func (p *BandwidthPacer) take(from, to int) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.links[[2]int{from, to}]
	if l == nil || len(l.deadlines) == 0 {
		return time.Time{}
	}
	d := l.deadlines[0]
	n := copy(l.deadlines, l.deadlines[1:])
	l.deadlines = l.deadlines[:n]
	return d
}

// WithFaultAfter wraps t so the first n Send/SendNoCopy/Recv operations
// succeed and every later one fails with an error wrapping ErrInjected. The
// wrapped transport is otherwise untouched, so a failed SendNoCopy leaves
// buffer ownership with the caller exactly as the Transport contract
// specifies (callers release the lease on error).
func WithFaultAfter(t Transport, n int) Transport {
	var budget atomic.Int64
	budget.Store(int64(n))
	return gated(t, func(op string, peer int) error {
		if budget.Add(-1) < 0 {
			return fmt.Errorf("comm: %s peer %d: %w", op, peer, ErrInjected)
		}
		return nil
	})
}

// WithFlaky wraps t so every Send/SendNoCopy/Recv fails independently with
// probability p, drawn from a seeded RNG — the transient-fault complement to
// WithFaultAfter's terminal budget. The same (seed, operation sequence)
// always yields the same failure pattern, so flaky-link tests are exactly
// reproducible. Failures wrap ErrInjected.
//
// Ownership on failure follows the Transport contract precisely: a failed
// SendNoCopy leaves the lease with the caller (release it), and a failed
// Recv consumes nothing — the message, if any, stays queued for the next
// Recv, like a dropped-then-retransmitted packet. A non-positive p returns t
// unchanged.
func WithFlaky(t Transport, p float64, seed int64) Transport {
	if p <= 0 {
		return t
	}
	// The RNG is mutex-guarded: a transport's Send runs on the comm
	// goroutine while tests may drive Recv elsewhere.
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return gated(t, func(op string, peer int) error {
		mu.Lock()
		x := rng.Float64()
		mu.Unlock()
		if x < p {
			return fmt.Errorf("comm: flaky %s peer %d: %w", op, peer, ErrInjected)
		}
		return nil
	})
}
