// Command acptrain runs real distributed data-parallel training with a
// chosen gradient aggregation method over in-process (or loopback TCP)
// workers — the convergence half of the reproduction (paper §V-B).
//
// Methods are selected by compressor spec, name[:key=value,...], resolved
// against the registry in internal/compress. The spec sets every method knob
// (rank, ratio, ef, reuse); unset params take the registry defaults, and
// without -method the run uses acp:rank=2.
//
//	acptrain -method acp -model minivgg -workers 4 -epochs 24
//	acptrain -method acp:rank=4,reuse=false -model miniresnet
//	acptrain -method topk:ratio=0.01,selection=exact
//	acptrain -method dgc:ratio=0.001 -workers 4
//	acptrain -method acp:rank=1,ef=false   # Fig. 7 ablation
//	acptrain -method ssgd -tcp             # collectives over real sockets
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/train"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("acptrain", flag.ContinueOnError)
	method := fs.String("method", "acp:rank=2",
		"compressor spec name[:key=value,...]; methods: "+strings.Join(compress.Names(), " | "))
	model := fs.String("model", "minivgg", "mlp | minivgg | miniresnet | minitransformer")
	workers := fs.Int("workers", 4, "number of data-parallel workers")
	batch := fs.Int("batch", 32, "per-worker batch size")
	epochs := fs.Int("epochs", 16, "training epochs")
	lr := fs.Float64("lr", 0.01, "base learning rate (warmup + step decays applied)")
	seed := fs.Int64("seed", 42, "random seed")
	tcp := fs.Bool("tcp", false, "run collectives over loopback TCP instead of channels")
	overlap := fs.Bool("overlap", true, "overlap collectives with back-propagation (wait-free backprop); results are bit-identical either way")
	chunks := fs.Int("chunks", 0, "pipeline chunks per fusion buffer (0 = unpipelined); results are bit-identical for every value")
	examples := fs.Int("examples", 2048, "training examples (synthetic dataset)")
	elastic := fs.Bool("elastic", false, "elastic runtime: heartbeat membership, periodic checkpoints, recovery at the surviving size on rank failure")
	ckptEvery := fs.Int("checkpoint-every", 8, "elastic snapshot interval in steps")
	minWorkers := fs.Int("min-workers", 1, "smallest group elastic recovery may re-form")
	stepDeadline := fs.Duration("step-deadline", 0, "stuck-step watchdog: abort any step exceeding this deadline; with -elastic it is recovered, without it the run fails (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// With the elastic runtime on, SIGTERM/SIGINT drains the highest rank
	// instead of killing the process: the cluster re-forms one worker
	// smaller at the next step boundary, paying no recovery budget. Each
	// further signal drains another rank; once the group is at min-workers
	// the drain is refused and the signal falls through to the default
	// handler on the next delivery.
	onCluster := func(c *train.Cluster) {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
		go func() {
			for sig := range sigCh {
				if err := c.DrainRank(c.Size() - 1); err != nil {
					fmt.Fprintf(os.Stderr, "acptrain: %v on %v; next signal exits\n", err, sig)
					signal.Stop(sigCh)
					return
				}
				fmt.Fprintf(os.Stderr, "acptrain: %v: draining one rank (now targeting %d workers)\n", sig, c.Size()-1)
			}
		}()
	}
	if !*elastic {
		onCluster = nil
	}

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "acptrain: %v\n", err)
		return 1
	}
	spec, err := compress.ParseSpec(*method)
	if err != nil {
		return fail(err)
	}
	build, all, err := models.Trainable(*model, *seed, *examples+*examples/4, 10)
	if err != nil {
		return fail(err)
	}
	trainSet, testSet, err := all.Split(*examples)
	if err != nil {
		return fail(err)
	}
	sched := train.OverlapOn
	if !*overlap {
		sched = train.OverlapOff
	}
	hist, err := train.Run(train.Config{
		Spec:           spec,
		Workers:        *workers,
		BatchPerWorker: *batch,
		Epochs:         *epochs,
		Momentum:       0.9,
		Schedule: train.Schedule{
			BaseLR:       *lr,
			WarmupEpochs: max(1, *epochs/8),
			DecayEpochs:  []int{*epochs / 2, *epochs * 3 / 4},
		},
		Overlap:        sched,
		PipelineChunks: *chunks,
		Elastic: train.ElasticConfig{
			Enabled:         *elastic,
			CheckpointEvery: *ckptEvery,
			MinWorkers:      *minWorkers,
			StepDeadline:    *stepDeadline,
		},
		Seed:      *seed,
		UseTCP:    *tcp,
		OnCluster: onCluster,
	}, build, trainSet, testSet)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%-6s  %-8s  %-10s  %s\n", "epoch", "lr", "train-loss", "test-acc")
	for _, s := range hist.Stats {
		fmt.Printf("%-6d  %-8.5f  %-10.4f  %.2f%%\n", s.Epoch, s.LR, s.TrainLoss, 100*s.TestAcc)
	}
	fmt.Printf("final test accuracy: %.2f%% (best %.2f%%)\n", 100*hist.FinalTestAcc, 100*hist.BestTestAcc())
	return 0
}
