package acpsgd_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/train"
)

// The wire-count golden: every registered method runs two steps in process
// on the benchmark's two model shapes at p = 2, 4 and 8, with and without
// chunk pipelining, and the messages and bytes each rank sends per step are
// pinned in testdata/wire_counts.golden. Counts over a fixed step count do
// not drift with wall time, so any refactor that changes what goes on the
// wire shows up here as a diff. Regenerate deliberately with:
//
//	go test -run TestWireCounts -update .

var updateWireCounts = flag.Bool("update", false, "rewrite testdata/wire_counts.golden")

// tagBytes is the (segment, step) tag every collective message carries.
const tagBytes = 8

// wireCounter is one rank's send tally.
type wireCounter struct{ msgs, bytes atomic.Int64 }

// countingTransport counts every message a rank sends and its bytes.
type countingTransport struct {
	comm.Transport
	n *wireCounter
}

func (t *countingTransport) Send(to int, data []byte) error {
	t.n.msgs.Add(1)
	t.n.bytes.Add(int64(len(data)))
	return t.Transport.Send(to, data)
}

func (t *countingTransport) SendNoCopy(to int, buf []byte) error {
	t.n.msgs.Add(1)
	t.n.bytes.Add(int64(len(buf)))
	return t.Transport.SendNoCopy(to, buf)
}

// wireShape is one model shape of the grid, as the benchmark builds it.
type wireShape struct {
	name        string
	bufferBytes int
	build       func(rng *rand.Rand) *nn.Model
	dataset     func(n int) *data.Dataset
}

var wireShapes = []wireShape{
	{
		name:        "mlp",
		bufferBytes: 4 * 384 * 384,
		build: func(rng *rand.Rand) *nn.Model {
			return models.MLP(rng, 64, 384, 384, 384, 384, 384, 384, 10)
		},
		dataset: func(n int) *data.Dataset { return data.GaussianMixture(1, n, 64, 10, 1.0) },
	},
	{
		name:        "tf",
		bufferBytes: 64 << 10,
		build: func(rng *rand.Rand) *nn.Model {
			return models.MiniTransformer(rng, 512, 16, 128, 10)
		},
		dataset: func(n int) *data.Dataset { return data.SynthSequences(1, n, 10, 512, 16, 0.5) },
	},
}

// wireSpecs are the benchmark's specs; DGC runs at Top-k's ratio, and every
// other method at its defaults.
var wireSpecs = map[string]string{
	"topk":  "topk:ratio=0.01",
	"power": "power:rank=4",
	"acp":   "acp:rank=4",
	"dgc":   "dgc:ratio=0.01",
}

var (
	wireRanks  = []int{2, 4, 8}
	wireChunks = []int{0, 3}
)

const (
	wireBatch = 2
	wireSteps = 2 // ACP-SGD alternates its P and Q rounds
)

// wireRow is one (shape, method, p, chunks, step) cell: per-rank counts.
type wireRow struct {
	shape, method   string
	p, chunks, step int
	msgs, bytes     []int64
}

func (r wireRow) String() string {
	return fmt.Sprintf("%s %s p=%d chunks=%d step=%d msgs=%s bytes=%s",
		r.shape, r.method, r.p, r.chunks, r.step, joinInts(r.msgs), joinInts(r.bytes))
}

func joinInts(xs []int64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(s, ",")
}

// payloadPerRank is the mean bytes a rank sent in the step, tags excluded.
func (r wireRow) payloadPerRank() float64 {
	var sum int64
	for i := range r.bytes {
		sum += r.bytes[i] - tagBytes*r.msgs[i]
	}
	return float64(sum) / float64(len(r.bytes))
}

// runWireCell trains one cluster for wireSteps steps and returns the
// per-rank counts of each step.
func runWireCell(t *testing.T, sh wireShape, method string, p, chunks int) []wireRow {
	spec := wireSpecs[method]
	if spec == "" {
		spec = method
	}
	counters := make([]*wireCounter, p)
	cfg := train.Config{
		Spec:           compress.MustSpec(spec),
		Workers:        p,
		BatchPerWorker: wireBatch,
		Epochs:         1,
		Momentum:       0.9,
		BufferBytes:    sh.bufferBytes,
		PipelineChunks: chunks,
		Seed:           7,
		NewTransports: func(n int) ([]comm.Transport, error) {
			ts, err := comm.NewInprocGroup(n, 0)
			if err != nil {
				return nil, err
			}
			for i := range ts {
				counters[i] = &wireCounter{}
				ts[i] = &countingTransport{Transport: ts[i], n: counters[i]}
			}
			return ts, nil
		},
	}
	c, err := train.NewCluster(cfg, sh.build, sh.dataset(p*wireBatch*wireSteps))
	if err != nil {
		t.Fatalf("%s %s p=%d chunks=%d: %v", sh.name, method, p, chunks, err)
	}
	defer c.Close()
	c.SetLR(0.01)
	var rows []wireRow
	for step := 1; step <= wireSteps; step++ {
		for _, n := range counters {
			n.msgs.Store(0)
			n.bytes.Store(0)
		}
		if _, err := c.Step(); err != nil {
			t.Fatalf("%s %s p=%d chunks=%d step %d: %v", sh.name, method, p, chunks, step, err)
		}
		row := wireRow{shape: sh.name, method: method, p: p, chunks: chunks, step: step}
		for _, n := range counters {
			row.msgs = append(row.msgs, n.msgs.Load())
			row.bytes = append(row.bytes, n.bytes.Load())
		}
		rows = append(rows, row)
	}
	return rows
}

// TestWireCounts pins every method's per-rank wire counts and checks them
// against the paper's scaling laws (§III-C): a ring all-reduce moves
// 2(p−1)/p of the buffer per rank, flat in p, while an all-gather moves
// (p−1) payloads per rank, growing with p.
func TestWireCounts(t *testing.T) {
	if raceEnabled() {
		t.Skip("deterministic counts, checked by the plain run; under -race the grid " +
			"takes minutes and pushes the race job's slowest packages past their timeout")
	}
	var rows []wireRow
	for _, sh := range wireShapes {
		for _, method := range compress.Names() {
			for _, p := range wireRanks {
				for _, chunks := range wireChunks {
					rows = append(rows, runWireCell(t, sh, method, p, chunks)...)
				}
			}
		}
	}
	checkWireLaws(t, rows)

	var buf bytes.Buffer
	buf.WriteString("# shape method p chunks step: per-rank messages and bytes sent (tags included)\n")
	for _, r := range rows {
		buf.WriteString(r.String())
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "wire_counts.golden")
	if *updateWireCounts {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire counts drifted from %s (regenerate with -update if intended):\n%s",
			golden, lineDiff(string(want), buf.String()))
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// wireLawTolerance is the relative slack a method's scaling law allows.
// Top-k's sampled threshold selects between k and 2k entries per rank, so
// its payload varies with the gradients each rank sees.
var wireLawTolerance = map[string]float64{"topk": 0.05}

// checkWireLaws compares each cell's tag-free bytes per rank at p > 2 with
// the same cell at p = 2: additive and blocking methods scale by 2(p−1)/p
// (within 0.5%, the segments' rounding), gather methods by exactly p−1.
// A cell's figure is its mean over ranks and steps: at p = 2 a step has
// only two of Top-k's per-rank samples, whose sizes spread by ±6%.
func checkWireLaws(t *testing.T, rows []wireRow) {
	t.Helper()
	type cell struct {
		shape, method string
		p, chunks     int
	}
	payload := map[cell]float64{}
	for _, r := range rows {
		payload[cell{r.shape, r.method, r.p, r.chunks}] += r.payloadPerRank() / wireSteps
	}
	for c, got := range payload {
		if c.p == 2 {
			continue
		}
		b := payload[cell{c.shape, c.method, 2, c.chunks}]
		f, err := compress.Lookup(c.method)
		if err != nil {
			t.Fatal(err)
		}
		want, tol := float64(c.p-1)*b, wireLawTolerance[c.method]
		if f.Info().Pattern != compress.PatternAllGather {
			want, tol = 2*float64(c.p-1)/float64(c.p)*b, 0.005
		}
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s %s p=%d chunks=%d: %.0f payload bytes per rank per step, want %.0f (p=2: %.0f, tolerance %.1f%%)",
				c.shape, c.method, c.p, c.chunks, got, want, b, 100*tol)
		}
	}
}

// lineDiff lists the lines only one side has, prefixed - (want) and + (got).
func lineDiff(want, got string) string {
	inWant := map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		inWant[l] = true
	}
	inGot := map[string]bool{}
	var out []string
	for _, l := range strings.Split(got, "\n") {
		inGot[l] = true
		if !inWant[l] {
			out = append(out, "+ "+l)
		}
	}
	for _, l := range strings.Split(want, "\n") {
		if !inGot[l] {
			out = append(out, "- "+l)
		}
	}
	return strings.Join(out, "\n")
}
