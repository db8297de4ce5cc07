package comm

import (
	"math/bits"
	"sync"
	"weak"
)

// bufPool recycles message buffers so steady-state collectives allocate
// nothing: a ring all-reduce leases a send buffer per step, the peer
// releases the received buffer after accumulating it, and the freed buffer
// feeds the next step's lease. Buffers are binned by power-of-two capacity
// class, each with poolHeadroom bytes of slack above its class.
//
// # The pooled-buffer ownership contract (normative)
//
// These are the rules every holder of a pooled buffer — obtained from
// Lease, returned by Recv, or served through a Gathered view — must follow.
// The acpvet leasecheck analyzer enforces them statically over this module
// (`go vet -vettool` in CI), and TestConformanceNoLeak asserts the runtime
// consequence: zero outstanding leases once a workload drains.
//
//  1. Every acquisition must be settled on every control-flow path,
//     including error returns: Release it, Retain it, hand it to
//     SendNoCopy, or transfer it onward (return it, store it into a
//     result structure, pass it to a function that takes ownership).
//  2. SendNoCopy transfers ownership to the transport only when it
//     succeeds. If it returns an error the buffer is still yours —
//     release it.
//  3. After Release the buffer may be re-leased to anyone at any moment:
//     no reads, no writes, no second settle. (len/cap of the dead slice
//     header are fine; the bytes are not.)
//  4. Release and Retain operate on the buffer as leased. The pool keys
//     buffers by their backing array, so releasing a re-sliced view with a
//     shifted start (buf[4:]) or an append-grown copy silently leaks the
//     original. Releasing a full-width reslice (buf[:n], buf[0:]) is fine.
//  5. Release is idempotent and safe on foreign or retained buffers: the
//     pool ignores anything it is not currently tracking. Code may lean on
//     this to release unconditionally where only some paths own the buffer.
//  6. Retain removes the buffer from tracking: the garbage collector takes
//     over and the pool can never hand that memory to anyone else. This is
//     how shared payloads (all-gather send buffers on groups above two) stay
//     valid while several receivers read them.
//
// A site that intentionally bends a rule carries an
// `//acpvet:ignore <reason>` directive on its line (or the line above);
// the reason is mandatory and the directive itself is reported when bare.
//
// The in-process transport shares one pool per group (a buffer released by
// the receiving rank is re-leased by any sender); the TCP transport owns one
// pool per rank (send buffers recycle after the socket write, receive
// buffers after the caller's Release).
//
// Tracking uses weak pointers so a receiver that simply drops a payload
// does not pin the backing array: the garbage collector reclaims the buffer
// and the stale tracking entry is swept the next time the table grows past
// its high-water mark. A drop is therefore memory-safe — but it is still a
// rule-1 violation (the buffer never recycles), which is why leasecheck
// flags it and outstanding() deliberately counts dropped-and-collected
// entries until the sweep.
type bufPool struct {
	mu   sync.Mutex
	free map[int][][]byte                // capacity class -> reusable buffers
	out  map[weak.Pointer[byte]]struct{} // buffers currently on lease or in flight
}

// outSweepHighWater bounds the tracking table: once it grows past this many
// entries, lease() sweeps entries whose buffers were garbage-collected.
const outSweepHighWater = 1024

func newBufPool() *bufPool {
	return &bufPool{
		free: make(map[int][][]byte),
		out:  make(map[weak.Pointer[byte]]struct{}),
	}
}

// poolHeadroom is the fixed slack every pooled buffer carries above its
// power-of-two class, so a power-of-two payload plus a small trailer (the
// 8-byte segment tag, the 4-byte integrity checksum) stays in the payload's
// own class instead of doubling into the next one.
const poolHeadroom = 64

// leaseClass returns the power-of-two class whose buffers (capacity class +
// poolHeadroom) are the smallest that hold n bytes.
func leaseClass(n int) int {
	return 1 << bits.Len(uint(max(n-poolHeadroom-1, 0)))
}

// sizeClass returns the class a buffer of capacity c files under.
func sizeClass(c int) int {
	c -= poolHeadroom
	if c <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(c)) - 1) // floor: never promise more than cap
}

// lease returns a zero-length-safe buffer of length n. The contents are
// unspecified; callers overwrite the whole buffer before sending.
func (p *bufPool) lease(n int) []byte {
	if n == 0 {
		return nil
	}
	want := leaseClass(n) // pow2 classes so bins stay coarse
	p.mu.Lock()
	if len(p.out) > outSweepHighWater {
		p.sweepLocked()
	}
	for class := want; class <= want<<1; class <<= 1 {
		if list := p.free[class]; len(list) > 0 {
			buf := list[len(list)-1]
			p.free[class] = list[:len(list)-1]
			p.out[weak.Make(&buf[0])] = struct{}{}
			p.mu.Unlock()
			return buf[:n]
		}
	}
	p.mu.Unlock()
	buf := make([]byte, n, want+poolHeadroom)
	p.mu.Lock()
	p.out[weak.Make(&buf[0])] = struct{}{}
	p.mu.Unlock()
	return buf
}

// sweepLocked drops tracking entries whose buffers the garbage collector
// already reclaimed (receivers that kept neither Release nor Retain
// promises). Caller holds p.mu.
func (p *bufPool) sweepLocked() {
	for key := range p.out {
		if key.Value() == nil {
			delete(p.out, key)
		}
	}
}

// release returns a leased buffer to its bin. Unknown buffers (never leased,
// already retained, or sub-sliced) are ignored.
func (p *bufPool) release(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	full := buf[:cap(buf)]
	key := weak.Make(&full[0])
	p.mu.Lock()
	if _, ok := p.out[key]; ok {
		delete(p.out, key)
		class := sizeClass(cap(full))
		p.free[class] = append(p.free[class], full)
	}
	p.mu.Unlock()
}

// outstanding returns the number of buffers currently on lease or in flight
// — entries that left the pool and were neither released nor retained. It
// deliberately does not sweep dead weak pointers first: a buffer that was
// dropped and garbage-collected is still a contract violation, and counting
// it is exactly what the leak assertions want.
func (p *bufPool) outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.out)
}

// retain removes a buffer from pool tracking so the caller may keep it
// indefinitely; the pool will never recycle it.
func (p *bufPool) retain(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	full := buf[:cap(buf)]
	p.mu.Lock()
	delete(p.out, weak.Make(&full[0]))
	p.mu.Unlock()
}
