package train

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/data"
)

// elasticSmokeConfig is smokeConfig plus an elastic runtime tuned for tests:
// a short backoff, and a heartbeat window short enough that Stabilize (which
// waits out one full timeout) stays sub-second but wide enough that live
// members are never expelled by scheduler starvation — on a loaded or
// single-core runner (several test binaries, -race), a beat goroutine can
// easily slip tens of milliseconds behind its timer.
func elasticSmokeConfig(spec string, overlap Overlap) Config {
	cfg := smokeConfig(spec, overlap)
	cfg.Elastic = ElasticConfig{
		Enabled:          true,
		CheckpointEvery:  4,
		MaxRecoveries:    3,
		Backoff:          5 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
	}
	return cfg
}

// TestElasticRecovery is the end-to-end chaos smoke: four workers train, rank
// 2 is killed mid-run, and the cluster must re-form at three workers from the
// last checkpoint and keep converging — on both transports, with overlap on
// and off. Run with -race in CI: recovery tears down in-flight collectives
// against concurrent bucket launches.
func TestElasticRecovery(t *testing.T) {
	bases := []struct {
		name   string
		useTCP bool
	}{
		{"inproc", false},
		{"tcp", true},
	}
	const (
		stepsBefore = 20 // successful steps before the kill
		stepsTotal  = 48 // successful steps overall
		killRank    = 2
	)
	trainSet := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, base := range bases {
		for _, overlap := range []Overlap{OverlapOn, OverlapOff} {
			t.Run(fmt.Sprintf("%s/overlap=%s", base.name, overlap), func(t *testing.T) {
				cfg := elasticSmokeConfig("topk:ratio=0.05", overlap)
				cfg.UseTCP = base.useTCP
				c, err := NewCluster(cfg, build, trainSet)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetLR(0.05)

				losses := stepLosses(t, c, stepsBefore)
				epochBefore := c.Epoch()
				c.KillRank(killRank)

				// Every subsequent Step must succeed: the first one rides
				// through a full recovery (abort, stabilize, re-form at 3,
				// restore from checkpoint) inside the call.
				losses = append(losses, stepLosses(t, c, stepsTotal-stepsBefore)...)

				if got := c.Size(); got != cfg.Workers-1 {
					t.Fatalf("expected re-form at %d workers, got %d", cfg.Workers-1, got)
				}
				if c.Epoch() <= epochBefore {
					t.Fatalf("membership epoch did not advance across recovery: %d -> %d", epochBefore, c.Epoch())
				}
				if err := c.CheckSync(); err != nil {
					t.Fatalf("survivors out of sync after recovery: %v", err)
				}
				// Convergence survived the crash: same tail-loss bar as the
				// uninterrupted smoke test.
				tail := 0.0
				for _, l := range losses[len(losses)-8:] {
					tail += l
				}
				tail /= 8
				if math.IsNaN(tail) || tail > 0.7 {
					t.Fatalf("tail loss %.4f above threshold after recovery", tail)
				}
			})
		}
	}
}

// TestElasticTransientFaultSameSize: a transport fault on a rank that keeps
// heartbeating is a link fault, not a crash — recovery must re-form the group
// at the SAME size (no member expelled) and training must continue.
func TestElasticTransientFaultSameSize(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	var builds int32
	cfg.NewTransports = func(p int) ([]comm.Transport, error) {
		ts, err := comm.NewInprocGroup(p, 0)
		if err != nil {
			return nil, err
		}
		// Only the first epoch's transports fault; the re-formed group is
		// clean, as after a recovered link.
		if atomic.AddInt32(&builds, 1) == 1 {
			ts[1] = comm.WithFaultAfter(ts[1], 5)
		}
		return ts, nil
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	stepLosses(t, c, 12) // the injected fault and its recovery happen in here
	if got := c.Size(); got != cfg.Workers {
		t.Fatalf("transient fault shrank the group: %d workers, want %d", got, cfg.Workers)
	}
	if n := atomic.LoadInt32(&builds); n < 2 {
		t.Fatalf("fault never triggered a re-form (transport builds: %d)", n)
	}
	if err := c.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticRestoreFidelity: a snapshot/restore cycle must be a bit-faithful
// continuation. Cluster A trains k steps and snapshots every worker; a fresh
// cluster B restores from those snapshots; stepping both onward must produce
// bit-identical losses and weights. This pins that checkpoints carry the full
// cross-step state — weights, momentum, step counter, and every compressor's
// error-feedback / momentum-correction / low-rank-factor vectors.
func TestElasticRestoreFidelity(t *testing.T) {
	specs := []string{"topk:ratio=0.05", "dgc:ratio=0.05", "power:rank=2", "sign", "acp:rank=2"}
	const warm, cont = 6, 3
	trainSet := data.GaussianMixture(1001, 512, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			cfg := smokeConfig(spec, OverlapOn)
			a, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.SetLR(0.05)
			stepLosses(t, a, warm)

			snaps := make([]*Checkpoint, a.Size())
			for r, w := range a.grp.workers {
				ck, err := w.snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps[r] = ck
			}

			b, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			b.SetLR(0.05)
			for r, w := range b.grp.workers {
				if err := w.restore(snaps[r]); err != nil {
					t.Fatal(err)
				}
			}

			lossesA := stepLosses(t, a, cont)
			lossesB := stepLosses(t, b, cont)
			for i := range lossesA {
				if lossesA[i] != lossesB[i] {
					t.Fatalf("step %d loss diverged after restore: %.17g vs %.17g", warm+i, lossesA[i], lossesB[i])
				}
			}
			for r := 0; r < a.Size(); r++ {
				pa, pb := a.Model(r).Params(), b.Model(r).Params()
				for i := range pa {
					for j, v := range pa[i].W.Data {
						if v != pb[i].W.Data[j] {
							t.Fatalf("rank %d param %s[%d] differs bit-wise after restore: %g vs %g",
								r, pa[i].Name, j, v, pb[i].W.Data[j])
						}
					}
				}
			}
		})
	}
}

// TestStepAfterAbortClusterDead: without Elastic, the first failing Step
// reports the root cause (so callers see what broke) and every later Step
// returns the stable ErrClusterDead sentinel instead of a second
// transport-flavored error or a hang.
func TestStepAfterAbortClusterDead(t *testing.T) {
	cfg := smokeConfig("ssgd", OverlapOn)
	cfg.NewTransports = faultyTransports(func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }, 1, 0)
	trainSet := data.GaussianMixture(1001, 128, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	_, first := c.Step()
	if first == nil {
		t.Fatal("injected fault never surfaced")
	}
	if !errors.Is(first, comm.ErrInjected) {
		t.Fatalf("first error should carry the root cause, got: %v", first)
	}
	if errors.Is(first, ErrClusterDead) {
		t.Fatalf("first error should be the root cause, not the sentinel: %v", first)
	}
	for i := 0; i < 3; i++ {
		_, err := c.Step()
		if !errors.Is(err, ErrClusterDead) {
			t.Fatalf("step %d after abort: want ErrClusterDead, got %v", i, err)
		}
	}
}

// TestElasticBudgetExhaustion: when every re-form keeps failing (the fault is
// persistent, not transient), the cluster must give up after MaxRecoveries
// with a clean error wrapping ErrClusterDead — graceful degradation, not an
// infinite retry loop or a hang.
func TestElasticBudgetExhaustion(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	cfg.Elastic.MaxRecoveries = 2
	cfg.Elastic.Backoff = time.Millisecond
	cfg.Elastic.HeartbeatTimeout = 40 * time.Millisecond
	// Every epoch's transports fault immediately: all members keep
	// heartbeating, so each recovery re-forms at full size and fails again.
	cfg.NewTransports = faultyTransports(func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }, 1, 0)
	trainSet := data.GaussianMixture(1001, 128, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)

	done := make(chan error, 1)
	go func() {
		_, err := c.Step()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClusterDead) {
			t.Fatalf("want ErrClusterDead after budget exhaustion, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("budget exhaustion hung instead of returning ErrClusterDead")
	}
	if _, err := c.Step(); !errors.Is(err, ErrClusterDead) {
		t.Fatalf("step after death: want ErrClusterDead, got %v", err)
	}
}

// TestElasticMinWorkers: a crash that drops survivors below MinWorkers is
// terminal — recovery refuses to re-form a group smaller than the floor.
func TestElasticMinWorkers(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	cfg.Elastic.MinWorkers = 4
	trainSet := data.GaussianMixture(1001, 128, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetLR(0.05)
	stepLosses(t, c, 2)

	c.KillRank(3)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.Step()
		if err != nil {
			if !errors.Is(err, ErrClusterDead) {
				t.Fatalf("want ErrClusterDead when survivors < MinWorkers, got %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("kill below MinWorkers never became terminal")
		}
	}
}

// TestElasticCloseDuringRecovery: Close racing a kill-triggered re-form must
// neither deadlock nor install a group into a closed cluster — the stepping
// goroutine comes back with ErrClusterDead. Run with -race in CI.
func TestElasticCloseDuringRecovery(t *testing.T) {
	cfg := elasticSmokeConfig("ssgd", OverlapOn)
	trainSet := data.GaussianMixture(1001, 128, 16, 4, 1.0)
	c, err := NewCluster(cfg, buildMLP(16, 16, 4), trainSet)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLR(0.05)

	done := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			_, err = c.Step()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let stepping start
	c.KillRank(1)
	time.Sleep(15 * time.Millisecond) // land Close inside the recovery window
	c.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrClusterDead) {
			t.Fatalf("want ErrClusterDead after close, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close during recovery deadlocked the stepping goroutine")
	}
}

// TestElasticConfigValidation: bad elastic knobs are rejected up front.
func TestElasticConfigValidation(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 64, 16, 4, 1.0)
	build := buildMLP(16, 8, 4)
	bad := []func(*Config){
		func(c *Config) { c.Elastic.MinWorkers = 5 },  // exceeds workers
		func(c *Config) { c.Elastic.MinWorkers = -1 }, // below 1
		func(c *Config) { c.Elastic.CheckpointEvery = -2 },
		func(c *Config) { c.Elastic.MaxRecoveries = -1 },
		func(c *Config) { c.Elastic.StepDeadline = -1 },
		// StepDeadline arms the watchdog with elastic off too, so it is
		// checked there as well.
		func(c *Config) { c.Elastic.Enabled = false; c.Elastic.StepDeadline = -1 },
	}
	for i, mutate := range bad {
		cfg := elasticSmokeConfig("ssgd", OverlapOn)
		mutate(&cfg)
		if _, err := NewCluster(cfg, build, trainSet); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}
