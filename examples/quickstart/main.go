// Quickstart: train a small model with ACP-SGD on four in-process workers
// with real ring all-reduce collectives, then ask the testbed simulator what
// the same method buys on the paper's 32-GPU cluster.
package main

import (
	"fmt"
	"log"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
	"acpsgd/internal/train"
)

func main() {
	// 1. Real distributed training: 4 data-parallel workers, gradients
	// compressed with ACP-SGD (rank 2) and aggregated with ring all-reduce,
	// on a 10-class Gaussian mixture task (2048 train / 512 test examples).
	build, all, err := models.Trainable("mlp", 42, 2048+512, 10)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	trainSet, testSet, err := all.Split(2048)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	hist, err := train.Run(train.Config{
		Spec:           compress.MustSpec("acp:rank=2"),
		Workers:        4,
		BatchPerWorker: 32,
		Epochs:         10,
		Momentum:       0.9,
		Schedule:       train.Schedule{BaseLR: 0.05, WarmupEpochs: 1, DecayEpochs: []int{5, 7}},
		Seed:           42,
	}, build, trainSet, testSet)
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Println("ACP-SGD on 4 workers (Gaussian mixture task):")
	for _, s := range hist.Stats {
		fmt.Printf("  epoch %2d  loss %.4f  test accuracy %.1f%%\n", s.Epoch, s.TrainLoss, 100*s.TestAcc)
	}
	fmt.Printf("final accuracy: %.1f%%\n\n", 100*hist.FinalTestAcc)

	// 2. Testbed simulation: one BERT-Base iteration on 32 GPUs / 10GbE
	// under S-SGD vs ACP-SGD (the paper's headline comparison), each in its
	// paper execution mode.
	for _, name := range []string{"ssgd", "acp"} {
		method, mode, _ := sim.ByName(name)
		r, err := sim.Simulate(sim.Config{
			Model:   models.BERTBase(),
			Method:  method,
			Mode:    mode,
			Workers: 32,
			Net:     sim.Net10GbE(),
			GPU:     sim.DefaultGPU(),
		})
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		fmt.Printf("%-6s on 32xGPU/10GbE: %4.0fms/iter (ff&bp %3.0f, compress %3.0f, comm %3.0f)\n",
			name, r.TotalSec*1e3, r.FFBPSec*1e3, r.CompressSec*1e3, r.CommSec*1e3)
	}
}
