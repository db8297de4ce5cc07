package train

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/elastic"
	"acpsgd/internal/nn"
)

// Overlap selects when sealed fusion buffers launch their collectives
// relative to back-propagation.
type Overlap int

const (
	// OverlapOn (the zero value) is the paper's wait-free schedule: a
	// bucket's collective launches the moment its last gradient lands, so
	// communication hides behind the rest of backward (§IV, Fig. 4(c)).
	OverlapOn Overlap = iota
	// OverlapOff defers every launch to the end of back-propagation. The
	// launches replay in the identical seal order, so the two modes produce
	// bit-identical models — OverlapOff exists to measure what overlap buys
	// and to debug scheduling, not as a different algorithm.
	OverlapOff
)

// String names the overlap mode.
func (o Overlap) String() string {
	switch o {
	case OverlapOn:
		return "on"
	case OverlapOff:
		return "off"
	default:
		return fmt.Sprintf("Overlap(%d)", int(o))
	}
}

// Config configures a distributed training run.
type Config struct {
	// Spec selects the compression method by name and params (the registry
	// API, e.g. compress.MustSpec("topk:ratio=0.01")). It is the only place
	// a method's knobs are set; params it leaves unset take the method's
	// registered defaults. It is required.
	Spec compress.Spec

	Workers        int
	BatchPerWorker int
	Epochs         int

	Momentum    float64
	WeightDecay float64
	// ClipNorm enables global gradient-norm clipping when positive.
	ClipNorm float64
	Schedule Schedule

	// BufferBytes overrides the 25MB fusion budget; NoFusion disables
	// tensor fusion entirely (per-tensor communication).
	BufferBytes int
	NoFusion    bool

	// Overlap selects the wait-free (default) or deferred-launch comm
	// schedule; see the Overlap type. Both schedules are bit-identical.
	Overlap Overlap

	// PipelineChunks enables intra-buffer chunk pipelining (the paper's
	// third system optimization, §III-B): a sealed buffer is encoded,
	// shipped and decoded in PipelineChunks chunks so compression compute
	// overlaps wire time inside every buffer. Additive buffers run the ring
	// all-reduce over PipelineChunks segments; gather buffers launch one
	// collective per encoded chunk and decode chunks as they land. 0 (or 1)
	// keeps the unpipelined path. Every chunk count produces bit-identical
	// models — the unpipelined path is the replay baseline, asserted in tests.
	PipelineChunks int

	// CheckNumerics arms the numeric-health guard: every step each worker
	// scans its local backward-pass gradients (self-reporting poison it
	// produced) and the decoded aggregates (the last line before the
	// optimizer step) for NaN/Inf. A hit fails the step with a NumericError;
	// with Elastic enabled, self-reported poison convicts the offending rank
	// and recovery expels it before re-forming (see blameCorruptRanks), so
	// one diverging replica cannot silently poison every survivor's weights.
	// Off by default: the scans cost one extra read pass over the gradients.
	CheckNumerics bool

	// Elastic enables the elastic cluster runtime: coordinator-managed
	// membership epochs with heartbeats, periodic full-state checkpoints,
	// and checkpoint-based recovery on rank failure instead of group death.
	// See ElasticConfig.
	Elastic ElasticConfig

	// Seed makes runs reproducible; all replicas derive their identical
	// initial weights from it.
	Seed int64
	// UseTCP runs the collectives over loopback TCP instead of in-process
	// channels.
	UseTCP bool
	// NewTransports overrides transport construction — benchmarks and
	// tests shape the link or inject faults here by stacking comm's
	// decorators (comm.NewBandwidthPacer, comm.WithLatency,
	// comm.WithFaultAfter, comm.WithFlaky, comm.WithStall,
	// comm.WithCorrupt, comm.WithIntegrity). When nil, UseTCP picks
	// loopback TCP or in-process channels. Elastic.StepDeadline arms
	// comm.WithDeadline only on the transports the cluster builds itself;
	// an injected stack adds its own.
	NewTransports func(workers int) ([]comm.Transport, error)
	// EvalEvery evaluates test accuracy every EvalEvery epochs (default 1).
	EvalEvery int
	// OnCluster, when set, is called by Run with the live cluster right
	// after construction and before the first step. It gives run-loop
	// drivers (e.g. a CLI signal handler that drains ranks on SIGTERM) a
	// handle to the elastic control surface — Join, DrainRank, CordonRank —
	// without owning the training loop.
	OnCluster func(*Cluster)

	// Resolved by validate.
	fac  compress.Factory
	info compress.MethodInfo
	spec compress.Spec
}

func (cfg *Config) validate() error {
	if cfg.Workers < 1 {
		return fmt.Errorf("train: workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.BatchPerWorker < 1 {
		return fmt.Errorf("train: batch per worker must be >= 1, got %d", cfg.BatchPerWorker)
	}
	if cfg.Epochs < 1 {
		return fmt.Errorf("train: epochs must be >= 1, got %d", cfg.Epochs)
	}
	switch cfg.Overlap {
	case OverlapOn, OverlapOff:
	default:
		return fmt.Errorf("train: unknown overlap mode %v", cfg.Overlap)
	}
	if cfg.PipelineChunks < 0 {
		return fmt.Errorf("train: pipeline chunks must be >= 0, got %d", cfg.PipelineChunks)
	}
	if err := cfg.Elastic.validate(cfg.Workers); err != nil {
		return err
	}
	fac, resolved, err := compress.Resolve(cfg.Spec)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	cfg.fac = fac
	cfg.spec = resolved
	cfg.info = fac.Info()
	return nil
}

// EpochStat records one epoch of training.
type EpochStat struct {
	Epoch     int
	LR        float64
	TrainLoss float64 // mean batch loss on worker 0
	TestAcc   float64 // NaN-free; carries the last measured value between evals
}

// History is the result of a training run.
type History struct {
	Stats        []EpochStat
	FinalTestAcc float64
}

// BestTestAcc returns the maximum test accuracy seen.
func (h *History) BestTestAcc() float64 {
	best := 0.0
	for _, s := range h.Stats {
		if s.TestAcc > best {
			best = s.TestAcc
		}
	}
	return best
}

// ErrClusterDead is the stable sentinel Step returns once the cluster is
// terminally dead: after a non-elastic abort, after Close, or after an
// elastic cluster exhausts its recovery budget or shrinks below MinWorkers.
// The first failing Step still reports the root-cause error (so callers see
// what went wrong); every later Step wraps ErrClusterDead, so callers can
// distinguish "this epoch failed but the cluster may recover" from "dead"
// with errors.Is instead of pattern-matching transport errors.
var ErrClusterDead = errors.New("train: cluster dead")

// ErrStepDeadline is wrapped by Step failures caused by the stuck-step
// watchdog: the step exceeded ElasticConfig.StepDeadline and the group was
// aborted. With Elastic enabled the failure feeds the normal recovery path
// (and when peers' deadline errors blame a specific rank, that rank is
// expelled before the group re-forms).
var ErrStepDeadline = errors.New("train: step deadline exceeded")

// epochGroup is one membership epoch's worth of runtime state: the worker
// set, the transport group wiring them, and the abort machinery. Workers and
// transports are epoch-scoped — on any membership change the cluster tears
// the whole group down and builds a fresh one at the new size, never patching
// ranks in place. That ownership model is what makes recovery (and, later,
// join/drain and topology changes) a rebuild instead of a special case.
type epochGroup struct {
	epoch         uint64
	memberIDs     []string
	workers       []*worker
	transports    []comm.Transport
	stepsPerEpoch int
	abortOnce     sync.Once
	closeOnce     sync.Once
}

// Cluster is a live group of synchronized data-parallel workers that step in
// lockstep — the exported stepping surface under Run. Benchmarks drive
// Step() directly to time individual iterations; tests use it to inspect
// models between steps. A Cluster owns its transports and workers; always
// Close it.
//
// With Config.Elastic enabled the worker set is epoch-scoped: a coordinator
// tracks membership by heartbeat, periodic checkpoints capture full training
// state, and a failed rank triggers a re-form at the surviving size from the
// last checkpoint instead of killing the group (see ElasticConfig).
type Cluster struct {
	cfg      Config
	build    func(rng *rand.Rand) *nn.Model
	trainSet *data.Dataset

	// mu guards the current-epoch group pointer and the elastic bookkeeping
	// below against concurrent Step/Close/recovery.
	mu  sync.Mutex
	grp *epochGroup

	// Elastic control plane (nil / empty when Elastic is disabled).
	coord       *elastic.Coordinator
	members     map[string]*elastic.Member
	pendingJoin map[string]*elastic.Member // joiners awaiting the next step boundary
	drainTimers map[string]*time.Timer     // per-draining-member degrade timers
	snaps       map[string]*Checkpoint     // per-member state at the last checkpoint
	poisoned    map[string]bool            // PoisonRank chaos: members with NaN-poisoned backward
	recoveries  int
	reshapes    int // planned re-forms (joins/drains) — budget-free, not recoveries
	sinceCkpt   int

	// lr is the last SetLR value, re-applied to every re-formed group so a
	// recovery or reshape cannot silently reset the learning rate (fresh
	// workers start at 0).
	lr    float64
	lrSet bool

	deadErr error // root cause once terminally dead
	closed  bool
}

// newEpochGroup builds the transport group and worker set for one membership
// epoch: p = len(memberIDs) ranks, data re-sharded p ways, every worker
// restored from its member's snapshot when one exists (nil snaps on the
// first epoch).
func newEpochGroup(cfg *Config, build func(rng *rand.Rand) *nn.Model, trainSet *data.Dataset,
	epoch uint64, memberIDs []string, snaps map[string]*Checkpoint) (*epochGroup, error) {
	p := len(memberIDs)
	var transports []comm.Transport
	var err error
	switch {
	case cfg.NewTransports != nil:
		transports, err = cfg.NewTransports(p)
		if err == nil && len(transports) != p {
			for _, t := range transports {
				t.Close()
			}
			err = fmt.Errorf("train: NewTransports built %d transports for %d workers", len(transports), p)
		}
	case cfg.UseTCP:
		transports, err = comm.NewTCPGroup(p)
	default:
		transports, err = comm.NewInprocGroup(p, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("train: transport: %w", err)
	}
	// Arm per-operation idle deadlines on the transports the cluster builds
	// itself, so a wedged peer is blamed by name instead of only tripping
	// the group-level watchdog. Injected stacks (NewTransports) are left
	// alone — tests and benchmarks compose their own decorator ordering.
	if d := cfg.Elastic.StepDeadline; d > 0 && cfg.NewTransports == nil {
		for i, t := range transports {
			transports[i] = comm.WithDeadline(t, d)
		}
	}

	g := &epochGroup{epoch: epoch, memberIDs: memberIDs, transports: transports}
	for r := 0; r < p; r++ {
		model := build(rand.New(rand.NewSource(cfg.Seed)))
		shard, err := trainSet.Shard(r, p)
		if err != nil {
			g.shutdown()
			return nil, err
		}
		w, err := newWorker(r, cfg, model, comm.NewCommunicator(transports[r]), shard)
		if err != nil {
			g.shutdown()
			return nil, err
		}
		if snap := snaps[memberIDs[r]]; snap != nil {
			if err := w.restore(snap); err != nil {
				w.close()
				g.shutdown()
				return nil, err
			}
		}
		g.workers = append(g.workers, w)
	}
	g.stepsPerEpoch = g.workers[0].batch.StepsPerEpoch()
	return g, nil
}

// step runs one synchronized training step on every worker of the epoch and
// returns worker 0's batch loss. A failing rank aborts the group so peers
// blocked in collectives fail fast instead of deadlocking; the root cause is
// preferred over the ErrClosed peers observe during teardown.
//
// A positive deadline arms the stuck-step watchdog: if the step has not
// completed by then the group is aborted, which closes the transports and
// fails every in-flight collective — turning a silent wedge (a rank that
// heartbeats but stopped communicating) into an ordinary failed step the
// elastic recovery path can handle. The per-rank error slice is returned
// alongside the step error so the recovery path can attribute blame (see
// blameHungRanks).
func (g *epochGroup) step(deadline time.Duration) (float64, []error, error) {
	losses := make([]float64, len(g.workers))
	errs := make([]error, len(g.workers))
	var wg sync.WaitGroup
	for r, w := range g.workers {
		wg.Add(1)
		go func(r int, w *worker) {
			defer wg.Done()
			losses[r], errs[r] = w.runStep()
			if errs[r] != nil {
				g.abort()
			}
		}(r, w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timedOut := false
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		select {
		case <-done:
			timer.Stop()
		case <-timer.C:
			timedOut = true
			g.abort()
		}
	}
	<-done
	if timedOut {
		err := firstStepError(errs)
		if err == nil {
			// Rare race: every rank finished between the timer firing and
			// the abort landing. The transports are closed either way, so
			// the step must still be treated as failed and retried.
			err = errors.New("all ranks completed after the abort")
		}
		return 0, errs, fmt.Errorf("%w after %v: %v", ErrStepDeadline, deadline, err)
	}
	if err := firstStepError(errs); err != nil {
		return 0, errs, err
	}
	return losses[0], errs, nil
}

// abort tears the epoch's transport group down so every rank's in-flight
// collective fails fast; idempotent.
func (g *epochGroup) abort() {
	g.abortOnce.Do(func() {
		for _, t := range g.transports {
			t.Close()
		}
	})
}

// shutdown aborts the transports (unblocking in-flight collectives) and then
// releases every worker's communication goroutine; idempotent.
func (g *epochGroup) shutdown() {
	g.closeOnce.Do(func() {
		g.abort()
		for _, w := range g.workers {
			w.close()
		}
	})
}

// NewCluster validates the config, builds the epoch-0 transport group (one
// rank per worker) and constructs every replica from the same seed, so
// workers start identical. With Elastic enabled it also starts the
// coordinator, registers one heartbeating member per worker, and takes the
// initial full-state checkpoint so recovery always has a restore point.
func NewCluster(cfg Config, build func(rng *rand.Rand) *nn.Model, trainSet *data.Dataset) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, build: build, trainSet: trainSet}

	memberIDs := make([]string, cfg.Workers)
	for r := range memberIDs {
		memberIDs[r] = fmt.Sprintf("w%d", r)
	}
	var epoch uint64
	if cfg.Elastic.Enabled {
		c.coord = elastic.NewCoordinator(cfg.Elastic.HeartbeatTimeout)
		c.members = make(map[string]*elastic.Member, cfg.Workers)
		c.pendingJoin = make(map[string]*elastic.Member)
		c.drainTimers = make(map[string]*time.Timer)
		c.snaps = make(map[string]*Checkpoint, cfg.Workers)
		for _, id := range memberIDs {
			m, err := elastic.Join(c.coord, id, cfg.Elastic.HeartbeatEvery)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("train: %w", err)
			}
			c.members[id] = m
		}
		epoch = c.coord.Epoch().Num
	}

	grp, err := newEpochGroup(&c.cfg, build, trainSet, epoch, memberIDs, nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.grp = grp
	if cfg.Elastic.Enabled {
		if err := c.checkpointNow(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// StepsPerEpoch returns the number of steps that cover one epoch of the
// sharded training set at the current group size (it grows when an elastic
// cluster shrinks, since each survivor's shard covers more of the set).
func (c *Cluster) StepsPerEpoch() int { return c.group().stepsPerEpoch }

// Size returns the number of workers in the current membership epoch.
func (c *Cluster) Size() int { return len(c.group().workers) }

// Epoch returns the current membership epoch number (0 when Elastic is
// disabled — the fixed group never changes membership).
func (c *Cluster) Epoch() uint64 { return c.group().epoch }

// Recoveries returns how many elastic recoveries (transient re-forms and
// crash shrinks) the cluster has completed so far.
func (c *Cluster) Recoveries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries
}

// group snapshots the current epoch group pointer.
func (c *Cluster) group() *epochGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.grp
}

// SetLR sets every worker's learning rate. The value sticks across
// recoveries and reshapes: every re-formed group starts at the last SetLR,
// so direct Step drivers don't silently train at LR 0 after a re-form.
func (c *Cluster) SetLR(lr float64) {
	c.mu.Lock()
	c.lr, c.lrSet = lr, true
	g := c.grp
	c.mu.Unlock()
	if g != nil {
		for _, w := range g.workers {
			w.opt.SetLR(lr)
		}
	}
}

// applyLRLocked re-applies the sticky learning rate to a freshly built group.
// Caller holds mu; the group is not stepping yet.
func (c *Cluster) applyLRLocked(g *epochGroup) {
	if !c.lrSet {
		return
	}
	for _, w := range g.workers {
		w.opt.SetLR(c.lr)
	}
}

// applyPoisonLocked re-arms the PoisonRank chaos flag on a freshly built
// group, so a poisoned member that survives a re-form (e.g. a recovery
// triggered by an unrelated fault) stays poisoned — the chaos models a
// replica with broken arithmetic, which a group rebuild does not repair.
// Caller holds mu; the group is not stepping yet.
func (c *Cluster) applyPoisonLocked(g *epochGroup) {
	if len(c.poisoned) == 0 {
		return
	}
	for r, id := range g.memberIDs {
		if c.poisoned[id] {
			g.workers[r].poison.Store(true)
		}
	}
}

// PoisonRank is the numeric-chaos hook mirroring KillRank: from the next
// step on, the worker occupying rank r injects a NaN into its loss gradient
// before backward, simulating silent arithmetic divergence (bad ALU, bit
// rot in activations) rather than a crash. With Config.CheckNumerics the
// guard self-reports the poison, recovery convicts the member, and the
// cluster re-forms without it. The poison sticks to the member, not the
// rank slot, across re-forms. Safe to call while a Step is in flight.
func (c *Cluster) PoisonRank(r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.grp
	if g == nil || r < 0 || r >= len(g.workers) {
		return
	}
	if c.poisoned == nil {
		c.poisoned = make(map[string]bool)
	}
	c.poisoned[g.memberIDs[r]] = true
	g.workers[r].poison.Store(true)
}

// Model returns the given rank's model (live; the next Step mutates it, and
// an elastic recovery replaces it — re-fetch after Step errors).
func (c *Cluster) Model(rank int) *nn.Model { return c.group().workers[rank].model }

// Step runs one synchronized training step and returns worker 0's batch
// loss.
//
// Without Elastic, a failing rank aborts the whole group and Step reports
// the root cause; the cluster is then dead and every later Step returns
// ErrClusterDead.
//
// With Elastic, a failed step triggers recovery: the epoch's transports and
// workers are torn down, membership settles through the coordinator
// (heartbeat-dead ranks are expelled), a fresh group forms at the surviving
// size, every worker restores from the last checkpoint, and the step is
// retried. Recovery consumes the retry budget; when it is exhausted, the
// survivors drop below MinWorkers, or the group cannot re-form, Step returns
// an error wrapping both the root cause and ErrClusterDead.
func (c *Cluster) Step() (float64, error) {
	// The group-level watchdog backstop sits a quarter past the per-op
	// deadline so a wedged transport operation (which started even earlier
	// in the step) always produces its blame-carrying DeadlineError first;
	// the backstop only fires for hangs no transport op can witness (a
	// compute wedge).
	var watchdog time.Duration
	if d := c.cfg.Elastic.StepDeadline; d > 0 {
		watchdog = d + d/4
	}
	for {
		c.mu.Lock()
		if c.closed || c.deadErr != nil {
			err := c.deadLocked()
			c.mu.Unlock()
			return 0, err
		}
		c.mu.Unlock()

		if c.cfg.Elastic.Enabled {
			if err := c.maybeReshape(); err != nil {
				return 0, err
			}
		}
		g := c.group()
		if g == nil {
			return 0, fmt.Errorf("%w (no group)", ErrClusterDead)
		}

		loss, rankErrs, err := g.step(watchdog)
		if err == nil {
			if cerr := c.noteStepDone(); cerr != nil {
				return 0, cerr
			}
			return loss, nil
		}
		if !c.cfg.Elastic.Enabled {
			c.mu.Lock()
			c.deadErr = err
			c.mu.Unlock()
			return 0, err
		}
		if rerr := c.recover(err, g, rankErrs); rerr != nil {
			return 0, rerr
		}
	}
}

// deadLocked formulates the stable post-mortem error. Caller holds mu.
func (c *Cluster) deadLocked() error {
	if c.deadErr != nil {
		return fmt.Errorf("%w (last failure: %v)", ErrClusterDead, c.deadErr)
	}
	return fmt.Errorf("%w (closed)", ErrClusterDead)
}

// firstStepError picks the most causal rank error: the lowest rank whose
// failure is not just the group teardown (ErrClosed) racing past it, falling
// back to the lowest-rank error of any kind.
func firstStepError(errs []error) error {
	var fallback error
	for r, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = fmt.Errorf("rank %d: %w", r, err)
		}
		if !errors.Is(err, comm.ErrClosed) {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return fallback
}

// Evaluate computes worker 0's test accuracy (replicas are identical, so one
// rank suffices).
func (c *Cluster) Evaluate(d *data.Dataset) float64 { return c.group().workers[0].evaluate(d) }

// CheckSync verifies the data-parallel invariant that every worker's weights
// are identical.
func (c *Cluster) CheckSync() error { return checkReplicasInSync(c.group().workers) }

// Close shuts the cluster down: the current epoch's transports first
// (unblocking any in-flight collective), then each worker's communication
// goroutine, then the elastic control plane. Safe to call concurrently with
// Step and with an in-flight recovery — a recovery that loses the race
// discards its freshly built group instead of installing it.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	g := c.grp
	members := make([]*elastic.Member, 0, len(c.members)+len(c.pendingJoin))
	for _, m := range c.members {
		members = append(members, m)
	}
	for _, m := range c.pendingJoin {
		members = append(members, m)
	}
	for _, tm := range c.drainTimers {
		tm.Stop()
	}
	c.mu.Unlock()

	if g != nil {
		g.shutdown()
	}
	for _, m := range members {
		m.Kill()
	}
	if c.coord != nil {
		c.coord.Close()
	}
}

// Run trains build()'s model with cfg over trainSet, evaluating on testSet.
// Every worker constructs its model from the same seed, so replicas start
// identical; aggregation keeps them identical (asserted in tests).
func Run(cfg Config, build func(rng *rand.Rand) *nn.Model, trainSet, testSet *data.Dataset) (*History, error) {
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 1
	}
	c, err := NewCluster(cfg, build, trainSet)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if cfg.OnCluster != nil {
		cfg.OnCluster(c)
	}

	hist := &History{}
	lastAcc := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		c.SetLR(lr)
		// Re-read the epoch length every data epoch: an elastic recovery
		// re-shards the training set, so each survivor's shard (and with it
		// the steps per epoch) grows when the group shrinks.
		steps := c.StepsPerEpoch()
		var epochLoss float64
		for s := 0; s < steps; s++ {
			loss, err := c.Step()
			if err != nil {
				return nil, fmt.Errorf("train: epoch %d step %d: %w", epoch, s, err)
			}
			epochLoss += loss
		}
		if (epoch+1)%cfg.EvalEvery == 0 || epoch == cfg.Epochs-1 {
			lastAcc = c.Evaluate(testSet)
		}
		hist.Stats = append(hist.Stats, EpochStat{
			Epoch:     epoch,
			LR:        lr,
			TrainLoss: epochLoss / float64(steps),
			TestAcc:   lastAcc,
		})
	}
	hist.FinalTestAcc = lastAcc

	// Replica-synchronization invariant: all workers must hold identical
	// weights at the end (data-parallel correctness).
	if err := c.CheckSync(); err != nil {
		return nil, err
	}
	return hist, nil
}

// checkReplicasInSync verifies the data-parallel invariant that every
// worker's weights are identical after synchronized updates.
func checkReplicasInSync(workers []*worker) error {
	if len(workers) < 2 {
		return nil
	}
	ref := workers[0].model.Params()
	for r := 1; r < len(workers); r++ {
		ps := workers[r].model.Params()
		for i, p := range ps {
			for j, v := range p.W.Data {
				d := v - ref[i].W.Data[j]
				if d > 1e-9 || d < -1e-9 {
					return fmt.Errorf("train: replica divergence: rank %d param %s[%d] differs by %v", r, p.Name, j, d)
				}
			}
		}
	}
	return nil
}
