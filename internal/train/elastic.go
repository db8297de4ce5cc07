package train

import (
	"fmt"
	"strconv"
	"time"

	"acpsgd/internal/compress"
	"acpsgd/internal/elastic"
)

// ElasticConfig configures the elastic cluster runtime. When Enabled, the
// cluster's worker set and transport group are epoch-scoped: a coordinator
// tracks membership by heartbeat, every CheckpointEvery successful steps the
// cluster snapshots each worker's full training state in memory (weights,
// optimizer momentum, compressor residuals — so a resumed run is a faithful
// continuation, not a weights-only restart), and a failed step triggers
// recovery instead of group death: tear down the epoch, let membership
// settle, re-form the ring at the surviving size, re-shard the data, restore
// every worker from its snapshot, and retry. Recovery is budgeted: after
// MaxRecoveries re-forms (or when survivors drop below MinWorkers) the
// cluster degrades to a clean terminal ErrClusterDead instead of retrying
// forever.
type ElasticConfig struct {
	// Enabled turns the elastic runtime on. All other fields except
	// StepDeadline are ignored (and not validated) when false.
	Enabled bool
	// MinWorkers is the smallest group recovery may re-form (default 1).
	// Fewer survivors than this is terminal.
	MinWorkers int
	// CheckpointEvery snapshots full training state every N successful
	// steps (default 8). A snapshot is also taken at construction, so
	// recovery always has a restore point.
	CheckpointEvery int
	// MaxRecoveries is the retry budget: the total number of epoch re-forms
	// before the cluster gives up with ErrClusterDead (default 4).
	MaxRecoveries int
	// Backoff is the base delay before a re-form, doubling per consecutive
	// recovery attempt (default 25ms). Membership settling (one heartbeat
	// timeout, inside elastic.Coordinator.Stabilize) is paid on top.
	Backoff time.Duration
	// HeartbeatEvery is each member's heartbeat period (default: a quarter
	// of HeartbeatTimeout).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is the liveness window after which a silent member
	// is expelled (default elastic.DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// StepDeadline arms the stuck-step watchdog: a synchronized step that
	// has not completed within it is aborted and recovered like a crash,
	// catching the failure heartbeats cannot see — a rank that is alive but
	// stopped communicating. On transports the cluster builds itself the
	// same deadline is applied per operation (comm.WithDeadline), so peers'
	// deadline errors name the hung rank and recovery expels it before
	// re-forming. Unlike the other fields it also applies when Enabled is
	// false, where a missed deadline fails the step and kills the cluster.
	// 0 disables the watchdog.
	StepDeadline time.Duration
	// DrainDeadline is the grace window a DrainRank gives the proactive
	// re-form: if the drained rank is still in the group when it elapses,
	// the rank departs unilaterally (heartbeats stop, transport closes) and
	// the drain degrades to the normal crash/expel path (default 8x
	// HeartbeatTimeout).
	DrainDeadline time.Duration
}

// validate applies defaults and checks bounds against the starting worker
// count.
func (e *ElasticConfig) validate(workers int) error {
	if e.StepDeadline < 0 {
		return fmt.Errorf("train: elastic step deadline must be >= 0, got %v", e.StepDeadline)
	}
	if !e.Enabled {
		return nil
	}
	if e.MinWorkers == 0 {
		e.MinWorkers = 1
	}
	if e.CheckpointEvery == 0 {
		e.CheckpointEvery = 8
	}
	if e.MaxRecoveries == 0 {
		e.MaxRecoveries = 4
	}
	if e.Backoff == 0 {
		e.Backoff = 25 * time.Millisecond
	}
	if e.HeartbeatTimeout == 0 {
		e.HeartbeatTimeout = elastic.DefaultHeartbeatTimeout
	}
	if e.HeartbeatEvery == 0 {
		e.HeartbeatEvery = e.HeartbeatTimeout / 4
	}
	if e.DrainDeadline == 0 {
		e.DrainDeadline = 8 * e.HeartbeatTimeout
	}
	if e.DrainDeadline < 0 {
		return fmt.Errorf("train: elastic drain deadline must be >= 0, got %v", e.DrainDeadline)
	}
	if e.MinWorkers < 1 {
		return fmt.Errorf("train: elastic min workers must be >= 1, got %d", e.MinWorkers)
	}
	if e.MinWorkers > workers {
		return fmt.Errorf("train: elastic min workers %d exceeds workers %d", e.MinWorkers, workers)
	}
	if e.CheckpointEvery < 1 {
		return fmt.Errorf("train: elastic checkpoint interval must be >= 1, got %d", e.CheckpointEvery)
	}
	if e.MaxRecoveries < 1 {
		return fmt.Errorf("train: elastic recovery budget must be >= 1, got %d", e.MaxRecoveries)
	}
	return nil
}

// noteStepDone counts a successful step toward the periodic checkpoint.
func (c *Cluster) noteStepDone() error {
	if !c.cfg.Elastic.Enabled {
		return nil
	}
	c.mu.Lock()
	c.sinceCkpt++
	due := c.sinceCkpt >= c.cfg.Elastic.CheckpointEvery
	c.mu.Unlock()
	if !due {
		return nil
	}
	return c.checkpointNow()
}

// checkpointNow snapshots every worker's full training state, keyed by the
// member occupying each rank — the in-memory restore points recovery rebuilds
// from. Replica weights and momentum are identical across ranks at a step
// boundary, but the compressor residuals are genuinely per-rank (each rank's
// error feedback tracks the gradients it compressed), which is why every
// member keeps its own snapshot rather than sharing rank 0's.
func (c *Cluster) checkpointNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.grp == nil {
		return nil
	}
	g := c.grp
	fresh := make(map[string]*Checkpoint, len(g.workers))
	for r, w := range g.workers {
		ck, err := w.snapshot()
		if err != nil {
			return fmt.Errorf("train: checkpoint: %w", err)
		}
		fresh[g.memberIDs[r]] = ck
	}
	for id, ck := range fresh {
		c.snaps[id] = ck
	}
	c.sinceCkpt = 0
	return nil
}

// KillRank simulates the crash of the worker occupying rank r in the current
// epoch: its control-plane member stops heartbeating (so the coordinator
// expels it after the heartbeat timeout) and its transport endpoint closes
// (so peers' in-flight collectives fail fast instead of deadlocking). The
// next Step observes the failure; with Elastic enabled the cluster recovers
// at the surviving size, without it the group dies. Safe to call while a
// Step is in flight.
func (c *Cluster) KillRank(r int) {
	c.mu.Lock()
	g := c.grp
	var m *elastic.Member
	if g != nil && r >= 0 && r < len(g.memberIDs) {
		m = c.members[g.memberIDs[r]]
	}
	c.mu.Unlock()
	if m != nil {
		m.Kill()
	}
	if g != nil && r >= 0 && r < len(g.transports) {
		g.transports[r].Close()
	}
}

// recover handles a failed step in elastic mode: tear down the failed
// epoch, spend one unit of the retry budget, wait out the backoff while
// membership settles (crashed ranks stop heartbeating and are expelled;
// ranks that merely saw a transient link fault keep beating and stay), then
// re-form the group at the surviving size with every worker restored from
// the last checkpoint. Returns nil when the cluster is ready to retry the
// step, or a terminal error wrapping ErrClusterDead.
//
// rankErrs is the failed step's per-rank error slice. Before membership
// settles, ranks blamed by their peers' deadline errors are expelled
// explicitly (ReportFailure): a hung-but-heartbeating rank would otherwise
// survive Stabilize and wedge every retry.
func (c *Cluster) recover(cause error, old *epochGroup, rankErrs []error) error {
	c.mu.Lock()
	if c.closed {
		err := c.deadLocked()
		c.mu.Unlock()
		return err
	}
	c.recoveries++
	attempt := c.recoveries
	budget := c.cfg.Elastic.MaxRecoveries
	if attempt > budget {
		c.deadErr = cause
		c.mu.Unlock()
		old.shutdown()
		return fmt.Errorf("train: recovery budget (%d) exhausted: %v: %w", budget, cause, ErrClusterDead)
	}
	c.mu.Unlock()

	// The failing rank already aborted the group's transports; shutdown is
	// idempotent and additionally reaps the workers' comm goroutines.
	old.shutdown()

	// Expel ranks convicted of hanging before the membership barrier runs,
	// so the settled epoch excludes them. Their member handles stay in
	// c.members until the prune below; killing the handle is not enough on
	// its own — the rank's process is "alive", only its collectives wedged —
	// which is exactly why the conviction must go through ReportFailure.
	for _, id := range blameHungRanks(old.memberIDs, rankErrs) {
		c.coord.ReportFailure(id, cause)
	}
	// Likewise expel ranks convicted by corruption evidence: checksum
	// failures naming the sending peer, payloads that failed structural
	// validation naming the encoding rank, and numeric-guard self-reports.
	// These members heartbeat fine — their bytes or arithmetic are what is
	// broken — so without the conviction they would survive Stabilize and
	// poison every retry.
	for _, id := range blameCorruptRanks(old.memberIDs, rankErrs) {
		c.coord.ReportFailure(id, cause)
	}

	// Exponential backoff between attempts, then the membership barrier:
	// Stabilize blocks for a full heartbeat timeout, so every rank that had
	// stopped beating before this point is out of the epoch it returns.
	time.Sleep(c.backoffFor(attempt))
	ep, err := c.coord.Stabilize()
	if err != nil {
		return c.die(fmt.Errorf("%v (membership: %v)", cause, err))
	}
	if ep.Size() < c.cfg.Elastic.MinWorkers {
		return c.die(fmt.Errorf("%d surviving workers below min %d after %v", ep.Size(), c.cfg.Elastic.MinWorkers, cause))
	}

	c.mu.Lock()
	if c.closed {
		err := c.deadLocked()
		c.mu.Unlock()
		return err
	}
	// Prune the control-plane handles, snapshots and drain timers of
	// expelled members (a drain that overlapped the crash folded into this
	// re-form — Stabilize dropped the draining member from the epoch).
	var reaped []*elastic.Member
	for id, m := range c.members {
		if !ep.Has(id) {
			reaped = append(reaped, m)
			delete(c.members, id)
			delete(c.snaps, id)
			delete(c.poisoned, id)
			if tm := c.drainTimers[id]; tm != nil {
				tm.Stop()
				delete(c.drainTimers, id)
			}
		}
	}
	snaps := make(map[string]*Checkpoint, len(ep.Members))
	for _, id := range ep.Members {
		snaps[id] = c.snaps[id]
	}
	c.mu.Unlock()
	for _, m := range reaped {
		m.Kill()
	}

	grp, err := newEpochGroup(&c.cfg, c.build, c.trainSet, ep.Num, ep.Members, snaps)
	if err != nil {
		return c.die(fmt.Errorf("re-form at %d workers: %v (after %v)", ep.Size(), err, cause))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		grp.shutdown()
		return fmt.Errorf("%w (closed during re-form)", ErrClusterDead)
	}
	c.grp = grp
	c.sinceCkpt = 0
	c.applyLRLocked(grp)
	c.applyPoisonLocked(grp)
	c.mu.Unlock()
	return nil
}

// die marks the cluster terminally dead with the given cause and returns the
// ErrClusterDead-wrapping error Step should surface.
func (c *Cluster) die(cause error) error {
	c.mu.Lock()
	c.deadErr = cause
	c.mu.Unlock()
	return fmt.Errorf("train: %v: %w", cause, ErrClusterDead)
}

// backoffFor returns the re-form delay for the given 1-based attempt:
// Backoff doubling per consecutive attempt, capped at 16x, with seeded
// jitter spreading the result over [ceiling/2, ceiling] so simultaneously
// recovering clusters (or ranks) don't re-register against the coordinator
// in lockstep. The jitter is a pure function of (Seed, attempt) — no RNG
// state — so a fixed seed reproduces the exact recovery timeline and a
// restored run replays it.
func (c *Cluster) backoffFor(attempt int) time.Duration {
	d := c.cfg.Elastic.Backoff
	for i := 1; i < attempt && i < 5; i++ {
		d *= 2
	}
	if d <= 1 {
		return d
	}
	span := uint64(d / 2)
	j := time.Duration(backoffMix(uint64(c.cfg.Seed), uint64(attempt)) % (span + 1))
	return d/2 + j
}

// backoffMix is a splitmix64-style finalizer over (seed, attempt) — the same
// construction compress.stepSeed uses for per-step RNG rebasing.
func backoffMix(seed, attempt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(attempt+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// snapshot captures the worker's full training state — weights, optimizer
// momentum, step counter, and every stateful compressor's cross-step vectors
// — as a self-contained checkpoint. Call only between steps (no collective
// in flight).
func (w *worker) snapshot() (*Checkpoint, error) {
	ck, err := Capture(w.model, w.opt, w.step)
	if err != nil {
		return nil, err
	}
	add := func(key string, st any) {
		s, ok := st.(compress.Stateful)
		if !ok {
			return
		}
		for _, v := range s.StateVectors() {
			ck.Residuals[key+"/"+v.Name] = append([]float64(nil), v.Data...)
		}
	}
	for p, comp := range w.additive {
		add("p:"+p.Name, comp)
	}
	for p, comp := range w.blocking {
		add("p:"+p.Name, comp)
	}
	for idx, comp := range w.gatherComp {
		add("b:"+strconv.Itoa(idx), comp)
	}
	return ck, nil
}

// restore rewinds a freshly constructed worker to the checkpoint: weights,
// momentum and step counter immediately; compressor state eagerly for the
// per-parameter compressors that already exist, and lazily (via applyState
// at construction) for the per-buffer ones created on first seal.
func (w *worker) restore(ck *Checkpoint) error {
	if err := ck.Apply(w.model, w.opt); err != nil {
		return err
	}
	w.step = ck.Step
	w.batch.Skip(ck.Step)
	w.resid = ck.Residuals
	for p, comp := range w.additive {
		if err := w.applyState("p:"+p.Name, comp); err != nil {
			return err
		}
	}
	for p, comp := range w.blocking {
		if err := w.applyState("p:"+p.Name, comp); err != nil {
			return err
		}
	}
	return nil
}

// applyState copies checkpointed state vectors into a compressor's live
// views. Missing keys leave the compressor's fresh (zero/seeded) state —
// that covers compressors that never stepped before the snapshot.
func (w *worker) applyState(key string, st any) error {
	if len(w.resid) == 0 {
		return nil
	}
	s, ok := st.(compress.Stateful)
	if !ok {
		return nil
	}
	for _, v := range s.StateVectors() {
		data, ok := w.resid[key+"/"+v.Name]
		if !ok {
			continue
		}
		if len(data) != len(v.Data) {
			return fmt.Errorf("train: checkpoint state %s/%s has %d elements, want %d", key, v.Name, len(data), len(v.Data))
		}
		copy(v.Data, data)
	}
	return nil
}
