package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
)

// ErrCorrupt is the sentinel wrapped by every CorruptError and by the TCP
// frame reader's checksum failures; match it with errors.Is when the failed
// operation's identity does not matter.
var ErrCorrupt = errors.New("comm: payload corrupt")

// CorruptError reports a payload whose integrity check failed. It names the
// peer the payload came from, which is what lets the elastic trainer turn a
// flipped bit into an expel: the receiving rank's error blames the sender,
// and recovery reports that member to the coordinator exactly as the
// stuck-step watchdog does for hangs. Extract with errors.As; Unwrap yields
// ErrCorrupt.
type CorruptError struct {
	Op   string // "send" or "recv"
	Peer int
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("comm: %s peer %d: payload corrupt", e.Op, e.Peer)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// WithCorrupt wraps t so each Send/SendNoCopy flips one uniformly chosen
// payload bit with probability p, using a seeded deterministic stream —
// the silent-corruption sibling of WithFlaky and WithStall, modeling wire or
// DMA corruption below every software check. The flip is never applied in
// place: inproc delivery is by reference and a retained buffer may be
// mid-send to other peers, so the decorator sends a flipped leased copy in
// the buffer's place (see substitute). Receives pass through untouched (the
// receive-side defenses — frame CRC, WithIntegrity, decode validation —
// are exactly what this decorator exists to exercise). A non-positive p
// returns t unchanged.
func WithCorrupt(t Transport, p float64, seed int64) Transport {
	if p <= 0 {
		return t
	}
	// The mutex serializes the rng: collectives send from multiple
	// goroutines.
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return &decorator{Transport: t, send: func(to int, buf []byte) error {
		bit := -1
		mu.Lock()
		if len(buf) > 0 && rng.Float64() < p {
			bit = rng.Intn(len(buf) * 8)
		}
		mu.Unlock()
		if bit < 0 {
			return t.SendNoCopy(to, buf)
		}
		out := t.Lease(len(buf))
		copy(out, buf)
		out[bit>>3] ^= 1 << uint(bit&7)
		return substitute(t, to, buf, out)
	}}
}

// WithIntegrity wraps t with end-to-end message checksums: Send/SendNoCopy
// append a CRC32C trailer, Recv verifies and strips it, failing with a
// *CorruptError naming the sender. The TCP transport already checksums each
// frame against socket-level corruption; this decorator covers everything
// above the transport — a WithCorrupt layer stacked inside it, a buggy
// middleware, shared-memory scribbles on inproc — at the cost of one copy
// per send (sealing in place is unsafe: inproc delivers by reference and a
// retained buffer may be mid-send to several peers). Both endpoints of a
// link must be wrapped or every payload fails verification.
func WithIntegrity(t Transport) Transport {
	return &decorator{
		Transport: t,
		send: func(to int, buf []byte) error {
			sealed := t.Lease(len(buf) + frameTrailerLen)
			n := copy(sealed, buf)
			binary.BigEndian.PutUint32(sealed[n:], crc32.Checksum(buf, crc32cTable))
			return substitute(t, to, buf, sealed)
		},
		// The truncation is a full-width reslice of the same backing array,
		// so the receiver's eventual Release still recycles the lease.
		recv: func(from int) ([]byte, error) {
			buf, err := t.Recv(from)
			if err != nil {
				return nil, err
			}
			n := len(buf) - frameTrailerLen
			if n < 0 || crc32.Checksum(buf[:n], crc32cTable) != binary.BigEndian.Uint32(buf[n:]) {
				t.Release(buf)
				return nil, &CorruptError{Op: "recv", Peer: from}
			}
			return buf[:n], nil
		},
	}
}

// substitute sends out, a leased copy of buf, in buf's place. On failure it
// releases the copy and the caller keeps buf, per the failed-send ownership
// rule. On success buf was consumed from the caller's point of view, so it
// is released (a no-op for retained or caller-owned buffers).
func substitute(t Transport, to int, buf, out []byte) error {
	if err := t.SendNoCopy(to, out); err != nil {
		t.Release(out)
		return err
	}
	t.Release(buf)
	return nil
}
