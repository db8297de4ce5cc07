package main

import (
	"fmt"
	"math/rand"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
	"acpsgd/internal/train"
)

// methods are the five gradient-aggregation methods every workload times,
// S-SGD first: compression only counts when it beats the uncompressed
// all-reduce baseline on the same link.
var methods = []string{"ssgd", "sign", "topk", "power", "acp"}

// specs fixes each method's compressor parameters for every workload.
var specs = map[string]string{
	"ssgd":  "ssgd",
	"sign":  "sign",
	"topk":  "topk:ratio=0.01",
	"power": fmt.Sprintf("power:rank=%d", lowRank),
	"acp":   fmt.Sprintf("acp:rank=%d", lowRank),
}

// lowRank is the rank Power-SGD and ACP-SGD factorize to.
const lowRank = 4

const workers = 2

// modelSeed fixes the initial weights and the batch order. The benchmark's
// -seed generates the dataset only: the weights are the program's, and
// varying them too makes steps-to-target swing by 20% seed to seed.
const modelSeed = 7

// isTarget reports whether the method's time-to-loss is an end-to-end
// metric: the uncompressed baseline and the two low-rank methods the paper
// compares on convergence.
func isTarget(method string) bool {
	return method == "ssgd" || method == "power" || method == "acp"
}

// link shapes the transports of one workload. The zero value is the
// unshaped in-process transport.
type link struct {
	tcp         bool          // real loopback TCP (framing, CRC, syscalls)
	bytesPerSec float64       // per-link bandwidth cap; 0 = none
	latency     time.Duration // per-hop delivery delay; 0 = none
}

// workload is one benchmark input: a model, a dataset recipe, a link regime
// and the per-method learning rates.
type workload struct {
	name  string
	link  link
	batch int
	// rows x hidden is the activation shape of the model's dense layers
	// (batch, or batch x sequence, rows), the shape the tensor kernels are
	// priced at.
	rows, hidden int
	// bufferBytes is the fusion budget, chosen so a step has several buckets
	// for overlap to schedule.
	bufferBytes int
	// lr is fixed per method: Sign-SGD with the others' rate never leaves
	// loss ln(classes).
	lr map[string]float64
	// target is the smoothed training loss S-SGD, Power-SGD and ACP-SGD must
	// all reach; time_to_loss_s is the step count to get there times step_ms.
	target  float64
	build   func(rng *rand.Rand) *nn.Model
	dataset func(seed int64) *data.Dataset
}

// mlpDims is a 64-384x6-10 MLP: 0.77M parameters, 6.1 MB of float64 on the
// wire per uncompressed all-reduce.
var mlpDims = []int{64, 384, 384, 384, 384, 384, 384, 10}

func mlpWorkload(name string, l link) workload {
	return workload{
		name: name, link: l,
		batch:       32,
		rows:        32,
		hidden:      mlpDims[1],
		bufferBytes: 4 * mlpDims[1] * mlpDims[1], // one hidden layer (fp32 accounting) per bucket: 6 buckets
		lr:          map[string]float64{"ssgd": 0.01, "sign": 0.001, "topk": 0.01, "power": 0.01, "acp": 0.01},
		target:      1.0,
		build:       func(rng *rand.Rand) *nn.Model { return models.MLP(rng, mlpDims...) },
		dataset:     func(seed int64) *data.Dataset { return mixture(seed, 4096, mlpDims[0], 10) },
	}
}

// mixture draws n examples of one fixed Gaussian-mixture task: the class
// centres are the task and never change, the seed draws the samples.
// data.GaussianMixture redraws the centres from its seed as well, which makes
// every seed a different task and moves steps-to-target by 15-20% seed to
// seed; with the task fixed it moves by a few percent. Features have roughly
// unit variance (centres 0.5, noise 1.0: the ratio data.GaussianMixture has
// at noise 4.0, below which the loss collapses to zero within a hundred steps
// and no loss target means anything).
func mixture(seed int64, n, features, classes int) *data.Dataset {
	centres := tensor.New(classes, features)
	centres.Randomize(rand.New(rand.NewSource(modelSeed)), 0.5)
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, features)
	labels := make([]int, n)
	for i := range labels {
		cls := rng.Intn(classes)
		labels[i] = cls
		for j := 0; j < features; j++ {
			x.Set(i, j, centres.At(cls, j)+rng.NormFloat64())
		}
	}
	return &data.Dataset{X: x, Labels: labels, Classes: classes}
}

// workloads: BENCHMARK.json carries the one-line why of each, README.md the
// long one.
var workloads = []workload{
	// Compute-bound; the only workload where comm's framing, CRC and
	// syscalls do real work.
	mlpWorkload("mlp_tcp", link{tcp: true}),
	// Wire-bound at 1 Gbit/s: payload size and overlap decide the step.
	mlpWorkload("mlp_slowlink", link{bytesPerSec: 125e6, latency: 200 * time.Microsecond}),
	// Many small collectives at 1 ms a hop, no bandwidth cap: start-up cost
	// decides the step.
	{
		name:        "tf_latency",
		link:        link{latency: time.Millisecond},
		batch:       16,
		rows:        16 * 16,
		hidden:      128,
		bufferBytes: 64 << 10,
		lr:          map[string]float64{"ssgd": 0.02, "sign": 0.001, "topk": 0.02, "power": 0.02, "acp": 0.02},
		target:      1.0,
		build:       func(rng *rand.Rand) *nn.Model { return models.MiniTransformer(rng, 512, 16, 128, 10) },
		dataset:     func(seed int64) *data.Dataset { return data.SynthSequences(seed, 4096, 10, 512, 16, 0.5) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// transports builds the workload's link for p ranks; wrap, when non-nil,
// decorates each rank's shaped transport (the traced run's counting layer
// sits outermost so it sees the waits the shaping imposes).
func (l link) transports(p int, wrap func(comm.Transport) comm.Transport) ([]comm.Transport, error) {
	var ts []comm.Transport
	var err error
	if l.tcp {
		ts, err = comm.NewTCPGroup(p)
	} else {
		ts, err = comm.NewInprocGroup(p, 0)
	}
	if err != nil {
		return nil, err
	}
	pacer := comm.NewBandwidthPacer(l.bytesPerSec)
	for i := range ts {
		ts[i] = comm.WithLatency(pacer.Wrap(ts[i]), l.latency)
		if wrap != nil {
			ts[i] = wrap(ts[i])
		}
	}
	return ts, nil
}

// clusterOpts are the per-cluster variations the traced run needs on top of
// a workload's fixed configuration.
type clusterOpts struct {
	link    link
	overlap train.Overlap
	spec    string // overrides specs[method] (traced compressor wrappers)
	wrap    func(comm.Transport) comm.Transport
	elastic train.ElasticConfig
}

// newCluster builds one method's 2-rank cluster for the workload and sets
// its learning rate (Cluster.Step trains at lr 0 until SetLR is called).
func (w workload) newCluster(method string, ds *data.Dataset, o clusterOpts) (*train.Cluster, error) {
	spec := o.spec
	if spec == "" {
		spec = specs[method]
	}
	cfg := train.Config{
		Spec:           compress.MustSpec(spec),
		Workers:        workers,
		BatchPerWorker: w.batch,
		Epochs:         1,
		Momentum:       0.9,
		BufferBytes:    w.bufferBytes,
		Overlap:        o.overlap,
		Elastic:        o.elastic,
		Seed:           modelSeed,
		NewTransports: func(p int) ([]comm.Transport, error) {
			return o.link.transports(p, o.wrap)
		},
	}
	c, err := train.NewCluster(cfg, w.build, ds)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.name, method, err)
	}
	c.SetLR(w.lr[method])
	return c, nil
}
