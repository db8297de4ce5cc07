package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpTransport is a full-mesh TCP transport: every pair of ranks shares one
// TCP connection (dialed by the lower rank). Each connection has a reader
// goroutine that demultiplexes incoming frames into a per-peer inbox and a
// writer goroutine draining a per-peer outbox, so Send never blocks on the
// peer's Recv (the non-blocking guarantee collectives need).
//
// Frames are length-prefixed and integrity-checked: 4-byte big-endian
// length, payload, then a 4-byte CRC32C trailer over header+payload. The
// reader verifies the checksum before the pooled buffer is handed up; a
// mismatch surfaces as a *CorruptError on the next Recv from that peer and
// abandons the byte stream (after a bad checksum the framing itself can no
// longer be trusted). The in-process transport has no frames and passes
// payloads by reference, so it needs no checksum of its own.
//
// Each rank owns a buffer pool: writer goroutines release leased send
// buffers back to it after the socket write, and reader goroutines lease
// incoming frame buffers from it so a receiver that Releases after decoding
// keeps the steady state allocation-free on both directions.
type tcpTransport struct {
	rank, size int

	conns   []net.Conn
	inbox   []chan tcpFrame
	outbox  []chan []byte
	pool    *bufPool
	closeMu sync.Mutex
	closed  chan struct{}
	wg      sync.WaitGroup
}

// tcpFrame is one delivered frame: a verified payload, or the terminal
// error (a checksum failure) that poisoned the link it arrived on.
type tcpFrame struct {
	buf []byte
	err error
}

const tcpInboxDepth = 256

// NewTCPGroup starts a TCP transport group of p ranks on the loopback
// interface and returns one Transport per rank. It is intended for tests and
// examples that want real sockets; multi-machine deployment would construct
// transports from explicit address lists via newTCPTransport-style wiring.
func NewTCPGroup(p int) ([]Transport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("comm: group size must be positive, got %d", p)
	}
	// One listener per rank on an ephemeral port.
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, fmt.Errorf("comm: listen rank %d: %w", i, err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}

	transports := make([]*tcpTransport, p)
	for r := 0; r < p; r++ {
		transports[r] = &tcpTransport{
			rank:   r,
			size:   p,
			conns:  make([]net.Conn, p),
			inbox:  make([]chan tcpFrame, p),
			outbox: make([]chan []byte, p),
			pool:   newBufPool(),
			closed: make(chan struct{}),
		}
		for q := 0; q < p; q++ {
			if q != r {
				transports[r].inbox[q] = make(chan tcpFrame, tcpInboxDepth)
				transports[r].outbox[q] = make(chan []byte, tcpInboxDepth)
			}
		}
	}

	// Accept loop per rank: expect a hello frame carrying the dialer's rank.
	var acceptWG sync.WaitGroup
	acceptErr := make([]error, p)
	for r := 0; r < p; r++ {
		expected := r // ranks below r dial us
		acceptWG.Add(1)
		go func(r int) {
			defer acceptWG.Done()
			for n := 0; n < expected; n++ {
				conn, err := listeners[r].Accept()
				if err != nil {
					acceptErr[r] = fmt.Errorf("comm: accept rank %d: %w", r, err)
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					acceptErr[r] = fmt.Errorf("comm: hello rank %d: %w", r, err)
					return
				}
				peer := int(binary.BigEndian.Uint32(hdr[:]))
				if peer < 0 || peer >= p || peer == r {
					acceptErr[r] = fmt.Errorf("comm: bad hello rank %d from peer %d", r, peer)
					return
				}
				transports[r].conns[peer] = conn
			}
		}(r)
	}

	// Dial: rank i dials every rank j > i.
	var dialErrMu sync.Mutex
	var dialErr error
	var dialWG sync.WaitGroup
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			dialWG.Add(1)
			go func(i, j int) {
				defer dialWG.Done()
				conn, err := net.Dial("tcp", addrs[j])
				if err == nil {
					var hdr [4]byte
					binary.BigEndian.PutUint32(hdr[:], uint32(i))
					_, err = conn.Write(hdr[:])
				}
				if err != nil {
					dialErrMu.Lock()
					if dialErr == nil {
						dialErr = fmt.Errorf("comm: dial %d->%d: %w", i, j, err)
					}
					dialErrMu.Unlock()
					return
				}
				transports[i].conns[j] = conn
			}(i, j)
		}
	}
	dialWG.Wait()
	acceptWG.Wait()
	for i := 0; i < p; i++ {
		listeners[i].Close()
		if acceptErr[i] != nil && dialErr == nil {
			dialErr = acceptErr[i]
		}
	}
	if dialErr != nil {
		for _, t := range transports {
			t.Close()
		}
		return nil, dialErr
	}

	out := make([]Transport, p)
	for r, t := range transports {
		t.startIO()
		out[r] = t
	}
	return out, nil
}

// startIO launches the reader and writer goroutines for every peer link.
func (t *tcpTransport) startIO() {
	for q := 0; q < t.size; q++ {
		if q == t.rank || t.conns[q] == nil {
			continue
		}
		peer := q
		conn := t.conns[q]
		in := t.inbox[q]
		out := t.outbox[q]
		t.wg.Add(2)
		go func() { // reader
			defer t.wg.Done()
			for {
				buf, err := readFrame(conn, t.pool, maxFrameLen)
				if err != nil {
					if errors.Is(err, ErrCorrupt) {
						// Hand the poisoned link to the next Recv before
						// giving up on the stream; the error precipitates
						// a group abort, so nothing waits forever on the
						// silenced peer.
						select {
						case in <- tcpFrame{err: &CorruptError{Op: "recv", Peer: peer}}:
						case <-t.closed:
						}
					}
					return
				}
				select {
				case in <- tcpFrame{buf: buf}:
				case <-t.closed:
					t.pool.release(buf)
					return
				}
			}
		}()
		go func() { // writer
			defer t.wg.Done()
			var hdr, tr [4]byte
			var iov [3][]byte
			for {
				select {
				case msg := <-out:
					frameSeal(&hdr, &tr, msg)
					// One writev keeps the trailer from costing a third
					// syscall per frame.
					bufs := net.Buffers(append(iov[:0], hdr[:], msg, tr[:]))
					if _, err := bufs.WriteTo(conn); err != nil {
						return
					}
					// Leased send buffers recycle once on the wire;
					// caller-owned Send slices are unknown to the pool
					// and ignored.
					t.pool.release(msg)
				case <-t.closed:
					return
				}
			}
		}()
	}
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

// Lease draws a send (or reader frame) buffer from this rank's pool.
func (t *tcpTransport) Lease(n int) []byte { return t.pool.lease(n) }

// SendNoCopy enqueues a leased buffer; the writer goroutine releases it back
// to the pool after the socket write.
func (t *tcpTransport) SendNoCopy(to int, buf []byte) error { return t.Send(to, buf) }

// Release recycles a leased or received buffer into this rank's pool.
func (t *tcpTransport) Release(buf []byte) { t.pool.release(buf) }

// Retain removes a buffer from pool tracking so the caller may keep it.
func (t *tcpTransport) Retain(buf []byte) { t.pool.retain(buf) }

// Outstanding reports this rank's pool buffers still on lease or in flight.
// Send buffers recycle asynchronously (the writer goroutine releases them
// after the socket write), so callers asserting zero must let the writers
// drain first.
func (t *tcpTransport) Outstanding() int { return t.pool.outstanding() }

func (t *tcpTransport) Send(to int, data []byte) error { return t.SendTimeout(to, data, 0) }

func (t *tcpTransport) Recv(from int) ([]byte, error) { return t.RecvTimeout(from, 0) }

// SendTimeout bounds the outbox enqueue on the TCP transport; d <= 0 never
// times out. A full outbox for longer than d means the writer goroutine (or
// the peer's reader) has stopped making progress. On timeout the message
// stays owned by the caller.
func (t *tcpTransport) SendTimeout(to int, data []byte, d time.Duration) error {
	if to < 0 || to >= t.size || to == t.rank {
		return fmt.Errorf("comm: bad peer %d", to)
	}
	select {
	case <-t.closed:
		// Check first: the buffered outbox would otherwise accept the
		// message even though no writer goroutine remains to drain it.
		return ErrClosed
	default:
	}
	timeout, stop := idleTimer(d)
	defer stop()
	select {
	case t.outbox[to] <- data:
		return nil
	case <-t.closed:
		return ErrClosed
	case <-timeout:
		return &DeadlineError{Op: "send", Peer: to, Idle: d}
	}
}

// RecvTimeout bounds a receive on the TCP transport's per-peer inbox; d <= 0
// never times out.
func (t *tcpTransport) RecvTimeout(from int, d time.Duration) ([]byte, error) {
	if from < 0 || from >= t.size || from == t.rank {
		return nil, fmt.Errorf("comm: bad peer %d", from)
	}
	timeout, stop := idleTimer(d)
	defer stop()
	select {
	case f := <-t.inbox[from]:
		return f.buf, f.err
	case <-t.closed:
		select {
		case f := <-t.inbox[from]:
			return f.buf, f.err
		default:
		}
		return nil, ErrClosed
	case <-timeout:
		return nil, &DeadlineError{Op: "recv", Peer: from, Idle: d}
	}
}

func (t *tcpTransport) Close() error {
	t.closeMu.Lock()
	select {
	case <-t.closed:
		t.closeMu.Unlock()
		return nil
	default:
		close(t.closed)
	}
	t.closeMu.Unlock()
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.wg.Wait()
	return nil
}
