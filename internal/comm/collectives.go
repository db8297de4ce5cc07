package comm

import (
	"fmt"
)

// Communicator layers collective operations over a Transport. Collectives
// must be invoked by all ranks of the group in the same order (standard
// SPMD semantics); within one rank a Communicator is not safe for concurrent
// collective calls — callers such as the trainer serialize collectives on a
// dedicated communication goroutine, exactly as the paper serializes NCCL
// launches on a communication stream.
//
// All float-bearing collectives follow the transport's pooled-buffer
// contract: send chunks are encoded straight into leased buffers and handed
// over with SendNoCopy, and received chunks are reduced or copied out in one
// pass and released, so the steady state allocates nothing.
type Communicator struct {
	t Transport
}

// NewCommunicator wraps a Transport.
func NewCommunicator(t Transport) *Communicator { return &Communicator{t: t} }

// Rank returns this rank.
func (c *Communicator) Rank() int { return c.t.Rank() }

// Size returns the group size.
func (c *Communicator) Size() int { return c.t.Size() }

// chunkRange returns the half-open element range of ring chunk i for a
// vector of length n split across p chunks. Chunks differ in size by at most
// one element and may be empty when n < p.
func chunkRange(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// sendChunkNoCopy encodes buf[lo:hi] into a leased buffer and hands it to
// the transport without further copies. On send failure the lease is
// returned to the pool.
func (c *Communicator) sendChunkNoCopy(to int, buf []float64, lo, hi int) error {
	msg := c.t.Lease(8 * (hi - lo))
	encodeFloatsInto(msg, buf[lo:hi])
	if err := c.t.SendNoCopy(to, msg); err != nil {
		c.t.Release(msg)
		return err
	}
	return nil
}

// AllReduceSum sums buf element-wise across all ranks in place using the
// ring algorithm: p-1 reduce-scatter steps followed by p-1 all-gather steps.
// Total bytes moved per rank: 2*(p-1)/p * len(buf) * 8, matching the
// bandwidth-optimal complexity in the paper's Table II.
func (c *Communicator) AllReduceSum(buf []float64) error {
	p := c.t.Size()
	if p == 1 || len(buf) == 0 {
		return nil
	}
	rank := c.t.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p

	// Phase 1: reduce-scatter. After step s, the chunk (rank-s-1 mod p) on
	// this rank holds partial sums of s+2 ranks. After p-1 steps, chunk
	// (rank+1 mod p) is fully reduced here.
	for s := 0; s < p-1; s++ {
		sendChunk := ((rank-s)%p + p) % p
		recvChunk := ((rank-s-1)%p + p) % p
		slo, shi := chunkRange(len(buf), p, sendChunk)
		if err := c.sendChunkNoCopy(next, buf, slo, shi); err != nil {
			return fmt.Errorf("comm: all-reduce rs send step %d: %w", s, err)
		}
		data, err := c.t.Recv(prev)
		if err != nil {
			return fmt.Errorf("comm: all-reduce rs recv step %d: %w", s, err)
		}
		rlo, rhi := chunkRange(len(buf), p, recvChunk)
		if err := floatPayloadLen(data, rhi-rlo); err != nil {
			c.t.Release(data)
			return fmt.Errorf("comm: all-reduce rs step %d: %w", s, err)
		}
		addFloatsFrom(buf[rlo:rhi], data)
		c.t.Release(data)
	}

	// Phase 2: all-gather the reduced chunks around the ring.
	for s := 0; s < p-1; s++ {
		sendChunk := ((rank+1-s)%p + p) % p
		recvChunk := ((rank-s)%p + p) % p
		slo, shi := chunkRange(len(buf), p, sendChunk)
		if err := c.sendChunkNoCopy(next, buf, slo, shi); err != nil {
			return fmt.Errorf("comm: all-reduce ag send step %d: %w", s, err)
		}
		data, err := c.t.Recv(prev)
		if err != nil {
			return fmt.Errorf("comm: all-reduce ag recv step %d: %w", s, err)
		}
		rlo, rhi := chunkRange(len(buf), p, recvChunk)
		if err := floatPayloadLen(data, rhi-rlo); err != nil {
			c.t.Release(data)
			return fmt.Errorf("comm: all-reduce ag step %d: %w", s, err)
		}
		decodeFloatsInto(buf[rlo:rhi], data)
		c.t.Release(data)
	}
	return nil
}

// AllGather collects every rank's byte payload (rank r's payload at
// Payload(r)). Payload sizes may differ per rank — this is what Sign-SGD and
// Top-k SGD need, and its per-rank traffic is (p-1)*N as in Table II.
//
// The local payload is copied once into a pooled buffer which every peer
// receives without further copies (the in-process transport delivers the
// same bytes to all ranks); received payloads are served as views over the
// receive buffers — no pack pass — and the result is caller-owned: read it
// through the Gathered views and call Release when done to recycle the
// buffers (or call Bytes to lazily pack a contiguous region). Steady state
// allocates only the small Gathered handle and, on groups larger than two,
// the shared send buffer (the pool must forget a buffer several receivers
// may still be reading); the self-copy and any packed region recycle through
// the pool.
func (c *Communicator) AllGather(local []byte) (*Gathered, error) {
	p := c.t.Size()
	rank := c.t.Rank()
	g := newGathered(c.t, p)
	if p > 1 {
		//acpvet:ignore p>1 here, so the exchange loop always runs and settles msg on every path
		msg := c.t.Lease(len(local))
		copy(msg, local)
		if p > 2 {
			// Shared across several receivers: the pool must forget it, and the
			// sender may keep reading its own (read-only) copy as the self view.
			c.t.Retain(msg)
			g.setPayload(rank, msg, msg) // Release is a safe no-op on retained buffers
		} else {
			// p == 2 hands msg to the single peer; stage a separate self copy.
			self := c.t.Lease(len(local))
			copy(self, local)
			g.setPayload(rank, self, self)
		}
		// Shifted direct exchange: at offset d, send to rank+d, receive from
		// rank-d.
		for d := 1; d < p; d++ {
			to := (rank + d) % p
			from := (rank - d + p) % p
			if err := c.t.SendNoCopy(to, msg); err != nil {
				// Failed handoff: the p==2 lease is still ours; on p>2 the
				// buffer is retained and Release is a safe no-op.
				c.t.Release(msg)
				g.abort()
				return nil, fmt.Errorf("comm: all-gather send to %d: %w", to, err)
			}
			data, err := c.t.Recv(from)
			if err != nil {
				g.abort()
				return nil, fmt.Errorf("comm: all-gather recv from %d: %w", from, err)
			}
			g.setPayload(from, data, data)
		}
	} else {
		self := c.t.Lease(len(local))
		copy(self, local)
		g.setPayload(rank, self, self)
	}
	g.finish()
	return g, nil
}
