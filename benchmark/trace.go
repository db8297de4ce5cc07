package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
)

// span is one timed interval at a layer boundary. Spans of one training step
// share its step id; parent is the id of the span that caused this one (-1
// for the root Step span). driverRank marks spans recorded by the benchmark's
// driver goroutine rather than by a rank.
type span struct {
	id, parent int
	name       string
	rank, step int
	start, end time.Duration // since the recorder was created
}

const driverRank = -1

// recorder keeps spans in memory; they are written out when the run ends.
// A nil *recorder records nothing, which is how tracing is switched off.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	root atomic.Int64 // id of the open root Step span; -1 between steps
	step atomic.Int64
	// open holds, per rank, the id of the blocking-compressor span that rank
	// is inside (-1 when none): Power-SGD's CompressStep drives collectives
	// itself, so the Sends and Recvs it causes are its children.
	open [workers]atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.root.Store(-1)
	for i := range r.open {
		r.open[i].Store(-1)
	}
	return r
}

// begin opens a span and returns its id, or -1 when nothing is recorded: on
// a nil recorder, and for a rank's call outside any Step (cluster
// construction and warm-up are not traced).
func (r *recorder) begin(name string, rank int) int {
	if r == nil {
		return -1
	}
	parent := int(r.root.Load())
	if rank >= 0 {
		if parent < 0 {
			return -1
		}
		if p := r.open[rank].Load(); p >= 0 {
			parent = int(p)
		}
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, rank: rank, step: int(r.step.Load()), start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// beginStep opens the root span of one Cluster.Step; endStep closes it.
func (r *recorder) beginStep() {
	if r == nil {
		return
	}
	r.step.Add(1)
	r.root.Store(int64(r.begin("train.Step", driverRank)))
}

func (r *recorder) endStep() {
	if r == nil {
		return
	}
	r.end(int(r.root.Load()))
	r.root.Store(-1)
}

// spanTree checks the recorded spans are well formed: every span closed, one
// root per step, every child inside its parent and in its parent's step.
func (r *recorder) spanTree() error {
	roots := map[int]int{}
	for _, s := range r.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) never closed", s.id, s.name)
		}
		if s.parent < 0 {
			roots[s.step]++
			continue
		}
		if s.parent >= len(r.spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.id, s.name, s.parent)
		}
		p := r.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%v,%v] leaves its parent %d (%s) [%v,%v]",
				s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end)
		}
		if s.step != p.step {
			return fmt.Errorf("span %d (%s) is in step %d, its parent in step %d", s.id, s.name, s.step, p.step)
		}
	}
	for step, n := range roots {
		if n != 1 {
			return fmt.Errorf("step %d has %d root spans", step, n)
		}
	}
	return nil
}

// selfTimes returns, for every root Step span, its duration and its self
// time as seen from one rank: the duration minus the union of that rank's
// child spans (Sends, Recvs and compressor calls may overlap one another —
// the communication goroutine runs beside backward — so their sum would
// over-count). Self time is what the step spent in forward, backward and the
// optimizer with nothing from a lower layer in flight.
func (r *recorder) selfTimes(rank int) (dur, self []time.Duration) {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent >= 0 && s.rank == rank && r.spans[s.parent].parent < 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range r.spans {
		if s.parent >= 0 {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, upTo time.Duration
		for _, k := range kids {
			from := max(k.start, upTo)
			if k.end > from {
				covered += k.end - from
				upTo = k.end
			}
		}
		dur = append(dur, s.end-s.start)
		self = append(self, s.end-s.start-covered)
	}
	return dur, self
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// ui.perfetto.dev): one process per rank plus one for the driver, one thread
// per span kind, complete ("X") events in microseconds.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids)
			tids[s.name] = tid
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: s.rank + 1, Tid: tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent, "step": s.step, "rank": s.rank},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// linkCounters are one cluster's in-step communication counts, summed over
// ranks by the counting transports below.
type linkCounters struct {
	bytes, msgs atomic.Int64
	recvWaitNS  atomic.Int64
}

// countingTransport is the benchmark's own Transport decorator: it counts
// bytes and messages sent and the time Recv blocked, and, when a recorder is
// attached, records a span around every Send and Recv. It sits outermost, so
// the wait it sees includes whatever the workload's link shaping imposes.
type countingTransport struct {
	comm.Transport
	n   *linkCounters
	rec *recorder
}

func (t *countingTransport) sent(size int, send func() error) error {
	t.n.msgs.Add(1)
	t.n.bytes.Add(int64(size))
	id := t.rec.begin("comm.Send", t.Rank())
	err := send()
	t.rec.end(id)
	return err
}

func (t *countingTransport) Send(to int, data []byte) error {
	return t.sent(len(data), func() error { return t.Transport.Send(to, data) })
}

func (t *countingTransport) SendNoCopy(to int, buf []byte) error {
	return t.sent(len(buf), func() error { return t.Transport.SendNoCopy(to, buf) })
}

func (t *countingTransport) Recv(from int) ([]byte, error) {
	id := t.rec.begin("comm.Recv", t.Rank())
	start := time.Now()
	data, err := t.Transport.Recv(from)
	t.n.recvWaitNS.Add(int64(time.Since(start)))
	t.rec.end(id)
	return data, err
}

// tracedPrefix names the benchmark's wrapper factories in the compress
// registry: "traced-acp" builds what "acp" builds, wrapped in spans.
const tracedPrefix = "traced-"

// activeRecorder is where the wrapper compressors record. The registry is
// process-global and factories are registered once, so the recorder has to
// be reachable from them; nil switches the spans off.
var activeRecorder atomic.Pointer[recorder]

// tracedFactory delegates to a registered method's factory and wraps what it
// builds so every compressor call is a span. Info differs in name only, so
// the trainer wires the wrapped method exactly as the real one.
type tracedFactory struct{ inner compress.Factory }

func (f tracedFactory) Info() compress.MethodInfo {
	info := f.inner.Info()
	info.Name = tracedPrefix + info.Name
	info.Aliases = nil
	return info
}

func (f tracedFactory) innerSpec(spec compress.Spec) compress.Spec {
	spec.Name = f.inner.Info().Name
	return spec
}

func (f tracedFactory) Validate(spec compress.Spec) error { return f.inner.Validate(f.innerSpec(spec)) }

func (f tracedFactory) WireRate(spec compress.Spec, n int) float64 {
	if r, ok := f.inner.(compress.WireRater); ok {
		return r.WireRate(f.innerSpec(spec), n)
	}
	return 1
}

func (f tracedFactory) New(spec compress.Spec, t compress.Tensor) (any, error) {
	st, err := f.inner.New(f.innerSpec(spec), t)
	if err != nil {
		return nil, err
	}
	name := "compress." + f.inner.Info().Name
	switch c := st.(type) {
	case compress.AdditiveCompressor:
		return &tracedAdditive{inner: c, rank: t.WorkerRank, name: name}, nil
	case compress.GatherCompressor:
		return &tracedGather{inner: c, rank: t.WorkerRank, name: name}, nil
	case compress.BlockingCompressor:
		return &tracedBlocking{inner: c, rank: t.WorkerRank, name: name}, nil
	default:
		return nil, fmt.Errorf("benchmark: cannot trace %T", st)
	}
}

var registerTracedOnce sync.Once

// registerTraced registers one wrapper factory per benchmarked method.
func registerTraced() {
	registerTracedOnce.Do(func() {
		for _, m := range methods {
			f, err := compress.Lookup(m)
			if err != nil {
				panic(err) // the five methods are registered by the compress package itself
			}
			compress.Register(tracedFactory{inner: f})
		}
	})
}

// tracedSpec turns a method's spec into its wrapper's ("acp:rank=4" ->
// "traced-acp:rank=4").
func tracedSpec(method string) string { return tracedPrefix + specs[method] }

func spanned(rank int, name string, fn func()) {
	r := activeRecorder.Load()
	id := r.begin(name, rank)
	fn()
	r.end(id)
}

// stateVectors forwards compress.Stateful so a checkpoint of a traced
// cluster still carries the compressor's cross-step state.
func stateVectors(c any) []compress.StateVector {
	if s, ok := c.(compress.Stateful); ok {
		return s.StateVectors()
	}
	return nil
}

type tracedAdditive struct {
	inner compress.AdditiveCompressor
	rank  int
	name  string
}

func (t *tracedAdditive) Compress(step int, grad []float64) (payload []float64) {
	spanned(t.rank, t.name+".Compress", func() { payload = t.inner.Compress(step, grad) })
	return payload
}

func (t *tracedAdditive) Finalize(step int, aggregated []float64, p int, grad []float64) {
	spanned(t.rank, t.name+".Finalize", func() { t.inner.Finalize(step, aggregated, p, grad) })
}

func (t *tracedAdditive) PayloadLen(step int) int { return t.inner.PayloadLen(step) }

func (t *tracedAdditive) StateVectors() []compress.StateVector { return stateVectors(t.inner) }

// tracedGather does not forward ChunkedGatherCompressor: no workload sets
// PipelineChunks, and compress.Chunked's fallback keeps it correct if one did.
type tracedGather struct {
	inner compress.GatherCompressor
	rank  int
	name  string
}

func (t *tracedGather) Encode(step int, grad []float64) (blob []byte) {
	spanned(t.rank, t.name+".Encode", func() { blob = t.inner.Encode(step, grad) })
	return blob
}

func (t *tracedGather) Decode(step int, blobs [][]byte, grad []float64) (err error) {
	spanned(t.rank, t.name+".Decode", func() { err = t.inner.Decode(step, blobs, grad) })
	return err
}

func (t *tracedGather) StateVectors() []compress.StateVector { return stateVectors(t.inner) }

type tracedBlocking struct {
	inner compress.BlockingCompressor
	rank  int
	name  string
}

func (t *tracedBlocking) CompressStep(step int, grad []float64, c compress.Collectives) error {
	r := activeRecorder.Load()
	id := r.begin(t.name+".CompressStep", t.rank)
	if id >= 0 {
		r.open[t.rank].Store(int64(id))
		defer r.open[t.rank].Store(-1)
	}
	err := t.inner.CompressStep(step, grad, c)
	r.end(id)
	return err
}

func (t *tracedBlocking) StateVectors() []compress.StateVector { return stateVectors(t.inner) }
