// Package core is the user-facing facade of the ACP-SGD reproduction: a
// string-keyed, validated API over the two halves of the system —
//
//   - real distributed training (Train): multi-worker data-parallel SGD
//     with gradient compression over real collectives, for convergence
//     studies (paper §V-B);
//   - testbed simulation (SimulateIteration): the discrete-event performance
//     model of the 32-GPU/10GbE cluster, for throughput studies (§III, §V-C
//     onward).
//
// Examples and the cmd/ tools are written against this package.
package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/sim"
	"acpsgd/internal/train"
)

// TrainConfig configures a real distributed training run.
type TrainConfig struct {
	// Method is a compressor spec in the registry grammar
	// name[:key=value,...] — e.g. "acp:rank=1,ef=false" or "dgc:ratio=0.001"
	// — and the only place method knobs are set; unset params take the
	// registry defaults. compress.Names() lists the registered methods;
	// legacy spellings ("power-sgd", "top-k", …) resolve as aliases.
	Method string
	// Model is one of "mlp", "minivgg", "miniresnet".
	Model string
	// Dataset is "gaussian" (vector task) or "images" (synthetic CIFAR
	// stand-in). Image models require "images".
	Dataset string

	Workers        int
	BatchPerWorker int
	Epochs         int

	LR           float64
	Momentum     float64
	WarmupEpochs int
	DecayEpochs  []int

	TrainExamples int
	TestExamples  int
	Classes       int

	Seed   int64
	UseTCP bool
	// NoOverlap disables wait-free backprop: collectives launch only after
	// the full backward pass (bit-identical to the default overlapped
	// schedule, but slower — a measurement/debugging knob).
	NoOverlap bool
	// PipelineChunks splits every fusion buffer's encode/wire/decode into
	// that many pipelined chunks (0 = unpipelined). All chunk counts are
	// bit-identical; the knob trades per-chunk launch/latency overhead for
	// overlap inside each buffer.
	PipelineChunks int

	// Elastic turns on the elastic cluster runtime: heartbeat-tracked
	// membership epochs, periodic full-state checkpoints, and recovery at
	// the surviving size when a rank fails, instead of group death.
	Elastic bool
	// CheckpointEvery is the elastic snapshot interval in steps (0 = the
	// runtime default of 8). Only meaningful with Elastic.
	CheckpointEvery int
	// MinWorkers is the smallest group recovery may re-form (0 = 1). Only
	// meaningful with Elastic.
	MinWorkers int
	// CheckpointDir, when non-empty, additionally persists rank 0's
	// snapshot to disk at every checkpoint as CRC-framed, generation-
	// numbered files (checkpoint-NNNNNN.gob, keep-3 ring). Only meaningful
	// with Elastic.
	CheckpointDir string
	// StepDeadline arms the stuck-step watchdog: a step that has not
	// completed within the deadline aborts the epoch, peers blame the
	// wedged rank, and recovery expels it like a crash. 0 disables the
	// watchdog. Only meaningful with Elastic.
	StepDeadline time.Duration
	// OnCluster, when set, receives the live cluster before the first
	// step — the hook CLI drivers use to wire drain/cordon signal handling
	// onto the elastic control surface. Only meaningful with Elastic.
	OnCluster func(*train.Cluster)
}

func (c *TrainConfig) withDefaults() TrainConfig {
	out := *c
	if out.Method == "" {
		out.Method = "acp"
	}
	if out.Model == "" {
		out.Model = "mlp"
	}
	if out.Dataset == "" {
		switch out.Model {
		case "mlp":
			out.Dataset = "gaussian"
		case "minitransformer":
			out.Dataset = "sequences"
		default:
			out.Dataset = "images"
		}
	}
	if out.Workers == 0 {
		out.Workers = 4
	}
	if out.BatchPerWorker == 0 {
		out.BatchPerWorker = 32
	}
	if out.Epochs == 0 {
		out.Epochs = 20
	}
	if out.LR == 0 {
		out.LR = 0.05
	}
	if out.Momentum == 0 {
		out.Momentum = 0.9
	}
	if out.WarmupEpochs == 0 {
		out.WarmupEpochs = out.Epochs / 10
	}
	if out.DecayEpochs == nil {
		out.DecayEpochs = []int{out.Epochs / 2, out.Epochs * 3 / 4}
	}
	if out.TrainExamples == 0 {
		out.TrainExamples = 2048
	}
	if out.TestExamples == 0 {
		out.TestExamples = 512
	}
	if out.Classes == 0 {
		out.Classes = 10
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	return out
}

// buildDatasets generates the train/test pair for a config.
func buildDatasets(cfg *TrainConfig) (*data.Dataset, *data.Dataset, error) {
	total := cfg.TrainExamples + cfg.TestExamples
	var all *data.Dataset
	switch cfg.Dataset {
	case "gaussian":
		all = data.GaussianMixture(cfg.Seed, total, 32, cfg.Classes, 1.2)
	case "images":
		all = data.SynthImages(cfg.Seed, total, cfg.Classes, 3, 8, 8, 0.6)
	case "sequences":
		all = data.SynthSequences(cfg.Seed, total, cfg.Classes, seqVocab, seqLen, 0.35)
	default:
		return nil, nil, fmt.Errorf("core: unknown dataset %q", cfg.Dataset)
	}
	return splitOrErr(all, cfg.TrainExamples)
}

func splitOrErr(all *data.Dataset, nTrain int) (*data.Dataset, *data.Dataset, error) {
	tr, te, err := all.Split(nTrain)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return tr, te, nil
}

// modelBuilder returns the factory for a named trainable model.
func modelBuilder(name, dataset string, classes int) (func(rng *rand.Rand) *nn.Model, error) {
	switch name {
	case "mlp":
		if dataset != "gaussian" {
			return nil, fmt.Errorf("core: mlp requires the gaussian dataset")
		}
		return func(rng *rand.Rand) *nn.Model {
			return models.MLP(rng, 32, 64, 64, classes)
		}, nil
	case "minivgg":
		if dataset != "images" {
			return nil, fmt.Errorf("core: minivgg requires the images dataset")
		}
		return func(rng *rand.Rand) *nn.Model {
			return models.MiniVGG(rng, 3, 8, 8, classes)
		}, nil
	case "miniresnet":
		if dataset != "images" {
			return nil, fmt.Errorf("core: miniresnet requires the images dataset")
		}
		return func(rng *rand.Rand) *nn.Model {
			return models.MiniResNet(rng, 3, 8, 8, classes)
		}, nil
	case "minitransformer":
		if dataset != "sequences" {
			return nil, fmt.Errorf("core: minitransformer requires the sequences dataset")
		}
		return func(rng *rand.Rand) *nn.Model {
			return models.MiniTransformer(rng, seqVocab, seqLen, 16, classes)
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
}

// Sequence-task geometry shared by the sequences dataset and the
// MiniTransformer builder.
const (
	seqVocab = 40
	seqLen   = 12
)

// Train runs a real multi-worker training job and returns its history.
func Train(cfg TrainConfig) (*train.History, error) {
	c := cfg.withDefaults()
	spec, err := compress.ParseSpec(c.Method)
	if err != nil {
		return nil, err
	}
	trainSet, testSet, err := buildDatasets(&c)
	if err != nil {
		return nil, err
	}
	build, err := modelBuilder(c.Model, c.Dataset, c.Classes)
	if err != nil {
		return nil, err
	}
	return train.Run(train.Config{
		Spec:           spec,
		Workers:        c.Workers,
		BatchPerWorker: c.BatchPerWorker,
		Epochs:         c.Epochs,
		Momentum:       c.Momentum,
		Schedule: train.Schedule{
			BaseLR:       c.LR,
			WarmupEpochs: c.WarmupEpochs,
			DecayEpochs:  c.DecayEpochs,
		},
		Overlap:        overlapMode(c.NoOverlap),
		PipelineChunks: c.PipelineChunks,
		Elastic: train.ElasticConfig{
			Enabled:         c.Elastic,
			CheckpointEvery: c.CheckpointEvery,
			MinWorkers:      c.MinWorkers,
			Dir:             c.CheckpointDir,
			StepDeadline:    c.StepDeadline,
		},
		Seed:      c.Seed,
		UseTCP:    c.UseTCP,
		OnCluster: c.OnCluster,
	}, build, trainSet, testSet)
}

// IterationConfig configures one simulated testbed iteration.
type IterationConfig struct {
	// Model is "resnet50", "resnet152", "bert-base", "bert-large",
	// "vgg16" or "resnet18".
	Model string
	// Method is a compressor spec over the simulatable methods "ssgd",
	// "sign", "topk", "power" or "acp" (plus "power*", the WFBP+TF
	// optimized Power-SGD of Table III). The rank and ratio params thread
	// through to the cost model ("acp:rank=256", "topk:ratio=0.01"); left
	// unset, they take the model's paper default.
	Method string
	// Mode overrides the execution mode: "naive", "wfbp", "wfbp+tf".
	// Empty picks the paper's default for the method.
	Mode string

	Workers int
	Batch   int
	// Network is "1gbe", "10gbe" or "100gbib" (default "10gbe").
	Network string

	BufferBytes int
	NoFusion    bool
	SlowOrth    bool
	// NoOverlap defers collectives until backward completes (the trainer's
	// Overlap=off schedule) in the performance model, so predicted and
	// measured overlap gains can be compared.
	NoOverlap bool
	// PipelineChunks mirrors the trainer's intra-buffer chunk pipelining in
	// the cost model (per-chunk collectives and encode/decode tasks).
	PipelineChunks int
}

// overlapMode maps the facade's boolean onto the trainer's knob.
func overlapMode(noOverlap bool) train.Overlap {
	if noOverlap {
		return train.OverlapOff
	}
	return train.OverlapOn
}

// SimulateIteration runs the performance model for one training iteration.
func SimulateIteration(cfg IterationConfig) (sim.Result, error) {
	spec, err := models.ByName(cfg.Model)
	if err != nil {
		return sim.Result{}, err
	}
	method, mode, mspec, err := parseSimMethod(cfg.Method, cfg.Mode)
	if err != nil {
		return sim.Result{}, err
	}
	netName := cfg.Network
	if netName == "" {
		netName = "10gbe"
	}
	net, ok := sim.NetByName(netName)
	if !ok {
		return sim.Result{}, fmt.Errorf("core: unknown network %q", cfg.Network)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 32
	}
	// Spec params thread into the cost model. Resolve fills in no defaults,
	// so an unset param reads as 0: the model's paper default.
	rank, _ := mspec.Params.Int("rank", 0)
	ratio, _ := mspec.Params.Float("ratio", 0)
	return sim.Simulate(sim.Config{
		Model:          spec,
		Method:         method,
		Mode:           mode,
		Workers:        workers,
		Batch:          cfg.Batch,
		Rank:           rank,
		TopKRatio:      ratio,
		Net:            net,
		GPU:            sim.DefaultGPU(),
		BufferBytes:    cfg.BufferBytes,
		NoFusion:       cfg.NoFusion,
		SlowOrth:       cfg.SlowOrth,
		NoOverlap:      cfg.NoOverlap,
		PipelineChunks: cfg.PipelineChunks,
	})
}

// parseSimMethod resolves a CLI method spec and mode name to simulator
// enums, with the paper's default execution mode per method. The method
// name/params go through the compress registry (so aliases and param
// validation are shared with training); sim.ByName then selects the cost
// model for the canonical name.
func parseSimMethod(method, mode string) (sim.Method, sim.Mode, compress.Spec, error) {
	s := strings.ToLower(strings.TrimSpace(method))
	if s == "" {
		s = "ssgd"
	}
	// "power*" is the simulator's spelling for WFBP+TF-optimized Power-SGD
	// (Table III); strip the star before registry resolution.
	head, rest, hasParams := strings.Cut(s, ":")
	star := false
	switch head {
	case "power*", "powerstar", "power-sgd*":
		head, star = "power", true
	}
	s = head
	if hasParams {
		s += ":" + rest
	}
	spec, err := compress.ParseSpec(s)
	if err != nil {
		return 0, 0, compress.Spec{}, fmt.Errorf("core: %w", err)
	}
	if _, spec, err = compress.Resolve(spec); err != nil {
		return 0, 0, compress.Spec{}, fmt.Errorf("core: %w", err)
	}
	m, defMode, ok := sim.ByName(spec.Name)
	if !ok {
		return 0, 0, compress.Spec{}, fmt.Errorf("core: method %q has no simulator cost model (simulatable: %s)",
			spec.Name, strings.Join(sim.Names(), ", "))
	}
	if star {
		defMode = sim.ModeWFBPTF
	}
	switch strings.ToLower(mode) {
	case "":
		return m, defMode, spec, nil
	case "naive":
		return m, sim.ModeNaive, spec, nil
	case "wfbp":
		return m, sim.ModeWFBP, spec, nil
	case "wfbp+tf", "wfbptf", "tf":
		return m, sim.ModeWFBPTF, spec, nil
	default:
		return 0, 0, compress.Spec{}, fmt.Errorf("core: unknown mode %q", mode)
	}
}
