package comm

import (
	"encoding/binary"
	"fmt"
)

// This file implements the one schedule behind every collective, with
// intra-buffer chunk pipelining — the third of the paper's three system
// optimizations (overlap, tensor fusion, pipelining; §III-B). A sealed
// fusion buffer no longer has to be encoded in full, shipped in full and
// decoded in full: the collectives split the buffer into m pipeline segments
// and keep several segments in flight at once, so segment s+1's messages are
// on the wire while segment s is still being reduced (or while its chunk is
// still being encoded/decoded by the caller). m = 1 is the unpipelined
// collective (AllReduceSum, AllGather).
//
// # Segment protocol
//
// Every message carries an 8-byte tag — two little-endian uint32 words
// (segment index, protocol step) — behind its payload, so the payload keeps
// the leased buffer's alignment for the bulk codec and the fused
// decode+accumulate kernel. Per-link delivery is FIFO and each segment's
// messages are sent in step order, so a receiver demultiplexes by reading
// the tag of whatever message arrives next and crediting it to that
// segment's state machine; no reordering buffer is needed, and a tag that
// does not match the segment's expected next step is a protocol violation
// surfaced as an error rather than corrupted data.
//
// # Bit-identity
//
// Segment j of ring chunk c is the j-th sub-slice of chunkRange(n, p, c), so
// every element keeps its ring-chunk index at any m. Each segment runs the
// standard p-1 reduce-scatter + p-1 all-gather ring schedule over its
// sub-slices, and at m = 1 the one segment is the whole ring chunk: that is
// the ring order. Per element, the additions happen in exactly that order
// at every m (the partial for chunk c starts at rank c and travels the same
// path), so the result is bit-for-bit identical for every segment count —
// which is what lets the trainer's PipelineChunks knob promise bit-identical
// models at any chunk count.

// pipelineWindow bounds how many segments have messages in flight at once.
// Each in-window segment holds at most one outstanding message per link, so
// the window must stay below the transport's internal send buffering (64
// messages for the in-process transport, 256 for TCP).
const pipelineWindow = 8

// pipeTagBytes is the segment/step tag appended to every message.
const pipeTagBytes = 8

// putPipeTag writes the (segment, step) tag into msg's last 8 bytes.
//
//acpvet:borrows
func putPipeTag(msg []byte, seg, step int) {
	tag := msg[len(msg)-pipeTagBytes:]
	binary.LittleEndian.PutUint32(tag, uint32(seg))
	binary.LittleEndian.PutUint32(tag[4:], uint32(step))
}

// pipeTag splits a message (at least pipeTagBytes long) into its payload
// and its (segment, step) tag.
//
//acpvet:borrows
func pipeTag(msg []byte) (payload []byte, seg, step int) {
	n := len(msg) - pipeTagBytes
	tag := msg[n:]
	return msg[:n:n], int(binary.LittleEndian.Uint32(tag)), int(binary.LittleEndian.Uint32(tag[4:]))
}

// segmentRange returns the half-open sub-range of [lo, hi) covered by
// pipeline segment j of m. Like chunkRange, sub-ranges differ in size by at
// most one element and may be empty.
func segmentRange(lo, hi, m, j int) (slo, shi int) {
	n := hi - lo
	return lo + j*n/m, lo + (j+1)*n/m
}

// pipeSegment returns the element range of ring chunk c's pipeline segment j
// for a vector of length n over p ranks and m segments — the partition unit
// of the pipelined ring all-reduce.
func pipeSegment(n, p, m, c, j int) (lo, hi int) {
	clo, chi := chunkRange(n, p, c)
	return segmentRange(clo, chi, m, j)
}

// AllReduceSumPipelined is the ring all-reduce with m pipeline segments:
// the buffer's ring schedule is split so that up to pipelineWindow segments
// progress concurrently, hiding per-step wire time behind the reduction of
// other segments. m <= 1 runs one segment, the plain ring. The result is
// bit-for-bit identical for every m (see the file comment).
func (c *Communicator) AllReduceSumPipelined(buf []float64, m int) error {
	p := c.t.Size()
	if p == 1 || len(buf) == 0 {
		return nil
	}
	m = max(m, 1)
	rank := c.t.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	totalSteps := 2 * (p - 1)

	// send posts segment j's message for protocol step s. Reduce-scatter
	// steps (s < p-1) forward chunk (rank-s) mod p; all-gather steps forward
	// chunk (rank+1-s') mod p.
	send := func(j, s int) error {
		var chunk int
		if s < p-1 {
			chunk = ((rank-s)%p + p) % p
		} else {
			chunk = ((rank+1-(s-(p-1)))%p + p) % p
		}
		lo, hi := pipeSegment(len(buf), p, m, chunk, j)
		msg := c.t.Lease(8*(hi-lo) + pipeTagBytes)
		encodeFloatsInto(msg[:8*(hi-lo)], buf[lo:hi])
		putPipeTag(msg, j, s)
		if err := c.t.SendNoCopy(next, msg); err != nil {
			c.t.Release(msg)
			return fmt.Errorf("comm: pipelined all-reduce send seg %d step %d: %w", j, s, err)
		}
		return nil
	}

	// Every rank opens the same window and answers each message by the same
	// rule, so every link carries one fixed message order and segments
	// complete in the order they started: the live segments are always
	// [completed, started), at most pipelineWindow of them (the check below
	// rejects any other order). expect[j%pipelineWindow] is live segment j's
	// next step — a fixed ring of slots, so no call allocates.
	var expect [pipelineWindow]int
	started := 0
	for ; started < min(m, pipelineWindow); started++ {
		if err := send(started, 0); err != nil {
			return err
		}
	}
	for completed := 0; completed < m; {
		data, err := c.t.Recv(prev)
		if err != nil {
			return fmt.Errorf("comm: pipelined all-reduce recv: %w", err)
		}
		if len(data) < pipeTagBytes {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce short message (%d bytes)", len(data))
		}
		payload, j, s := pipeTag(data)
		last := s == totalSteps-1
		if j < completed || j >= started || s != expect[j%pipelineWindow] || (last && j != completed) {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce protocol violation: got seg %d step %d (completed %d, started %d)", j, s, completed, started)
		}
		// Credit the message: reduce-scatter receives accumulate chunk
		// (rank-s-1); all-gather receives overwrite chunk (rank-s').
		var chunk int
		reduce := s < p-1
		if reduce {
			chunk = ((rank-s-1)%p + p) % p
		} else {
			chunk = ((rank-(s-(p-1)))%p + p) % p
		}
		lo, hi := pipeSegment(len(buf), p, m, chunk, j)
		if err := floatPayloadLen(payload, hi-lo); err != nil {
			c.t.Release(data)
			return fmt.Errorf("comm: pipelined all-reduce seg %d step %d: %w", j, s, err)
		}
		if reduce {
			addFloatsFrom(buf[lo:hi], payload)
		} else {
			decodeFloatsInto(buf[lo:hi], payload)
		}
		c.t.Release(data)
		if !last {
			expect[j%pipelineWindow] = s + 1
			if err := send(j, s+1); err != nil {
				return err
			}
			continue
		}
		completed++
		if started < m { // slide the window: admit the next segment
			expect[started%pipelineWindow] = 0
			if err := send(started, 0); err != nil {
				return err
			}
			started++
		}
	}
	return nil
}

// AllGatherPipelined runs m chunked all-gathers as one pipelined collective.
// source(i) is called once per chunk, in order, to produce the local chunk
// blob; the chunk is forwarded to every peer immediately, so chunk i is on
// the wire while chunk i+1 is still being produced. sink(i, g) delivers each
// chunk's gathered result, in chunk order, as soon as every rank's chunk has
// landed — the caller decodes chunk i while later chunks are still in
// flight, and owns g until its Release. A sink error aborts the collective.
//
// All ranks must call it with the same m. Chunk payload sizes may differ per
// rank and per chunk (empty chunks included).
func (c *Communicator) AllGatherPipelined(m int, source func(i int) []byte, sink func(i int, g *Gathered) error) error {
	if m <= 0 {
		return fmt.Errorf("comm: pipelined all-gather needs m >= 1, got %d", m)
	}
	p := c.t.Size()
	rank := c.t.Rank()
	// selfViews[i%pipelineWindow] stages live chunk i's handle until the
	// sink takes it. Chunks complete in order and at most pipelineWindow are
	// produced ahead of the oldest, so the fixed ring never collides and no
	// call allocates it.
	var selfViews [pipelineWindow]*Gathered

	// produceAndSend builds chunk i's local blob and forwards it to every
	// peer with the (chunk, 0) tag; the transport buffers the wire side, so
	// delivery of chunk i overlaps production of later chunks.
	produceAndSend := func(i int) error {
		blob := source(i)
		g := newGathered(c.t, p)
		selfViews[i%pipelineWindow] = g
		if p == 1 {
			self := c.t.Lease(len(blob))
			copy(self, blob)
			g.setPayload(rank, self, self)
			return nil
		}
		//acpvet:ignore p>1 here, so the peer-send loop always runs and settles msg on every path
		msg := c.t.Lease(len(blob) + pipeTagBytes)
		copy(msg, blob)
		putPipeTag(msg, i, 0)
		if p > 2 {
			c.t.Retain(msg) // shared across several receivers
			g.setPayload(rank, msg[:len(blob):len(blob)], msg)
		} else {
			self := c.t.Lease(len(blob))
			copy(self, blob)
			g.setPayload(rank, self, self)
		}
		for d := 1; d < p; d++ {
			to := (rank + d) % p
			if err := c.t.SendNoCopy(to, msg); err != nil {
				// Failed handoff: the p==2 lease is still ours; on p>2 the
				// buffer is retained and Release is a safe no-op.
				c.t.Release(msg)
				return fmt.Errorf("comm: pipelined all-gather send chunk %d to %d: %w", i, to, err)
			}
		}
		return nil
	}

	// Sliding-window schedule: keep up to pipelineWindow chunks in flight so
	// the transport's internal send buffering is never exhausted (all ranks
	// blocking in Send at once would deadlock), then alternate between
	// completing the oldest chunk and admitting the next one. Chunk i
	// completes when every peer's chunk-i message has arrived (per-link FIFO
	// guarantees peers' chunks arrive in order; the tag is verified, not
	// trusted); the sink consumes chunk i while later chunks are still being
	// produced and delivered.
	abort := func() { abortGathers(selfViews[:]) }
	produced := 0
	for ; produced < min(m, pipelineWindow); produced++ {
		if err := produceAndSend(produced); err != nil {
			abort()
			return err
		}
	}
	for i := 0; i < m; i++ {
		g := selfViews[i%pipelineWindow]
		for d := 1; d < p; d++ {
			from := (rank - d + p) % p
			data, err := c.t.Recv(from)
			if err != nil {
				abort()
				return fmt.Errorf("comm: pipelined all-gather recv chunk %d from %d: %w", i, from, err)
			}
			if len(data) < pipeTagBytes {
				c.t.Release(data)
				abort()
				return fmt.Errorf("comm: pipelined all-gather short message (%d bytes)", len(data))
			}
			payload, chunk, _ := pipeTag(data)
			if chunk != i {
				c.t.Release(data)
				abort()
				return fmt.Errorf("comm: pipelined all-gather protocol violation: got chunk %d from %d, want %d", chunk, from, i)
			}
			g.setPayload(from, payload, data)
		}
		g.finish()
		selfViews[i%pipelineWindow] = nil // ownership passes to the sink
		if err := sink(i, g); err != nil {
			abort()
			return fmt.Errorf("comm: pipelined all-gather sink chunk %d: %w", i, err)
		}
		if produced < m {
			if err := produceAndSend(produced); err != nil {
				abort()
				return err
			}
			produced++
		}
	}
	return nil
}

// abortGathers drops the staged per-chunk handles after a failed pipelined
// gather.
func abortGathers(gs []*Gathered) {
	for _, g := range gs {
		if g != nil {
			g.abort()
		}
	}
}
