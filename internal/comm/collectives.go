package comm

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
//
// Each collective has one schedule, the segmented state machine in
// pipeline.go; the unpipelined forms below are its one-segment case.
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

// AllReduceSum sums buf element-wise across all ranks in place using the
// ring algorithm: p-1 reduce-scatter steps followed by p-1 all-gather steps.
// Total bytes moved per rank: 2*(p-1)/p * len(buf) * 8 plus one 8-byte
// segment tag per message, matching the bandwidth-optimal complexity in the
// paper's Table II. It is AllReduceSumPipelined with one segment.
func (c *Communicator) AllReduceSum(buf []float64) error {
	return c.AllReduceSumPipelined(buf, 1)
}

// AllGather collects every rank's byte payload (rank r's payload at
// Payload(r)). Payload sizes may differ per rank — this is what Sign-SGD and
// Top-k SGD need, and its per-rank traffic is (p-1)*N as in Table II. It is
// AllGatherPipelined with one chunk.
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
	var out *Gathered
	err := c.AllGatherPipelined(1,
		func(int) []byte { return local },
		func(_ int, g *Gathered) error { out = g; return nil })
	return out, err
}
