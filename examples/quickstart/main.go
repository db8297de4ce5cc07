// Quickstart: train a small model with ACP-SGD on four in-process workers
// with real ring all-reduce collectives, then ask the testbed simulator what
// the same method buys on the paper's 32-GPU cluster.
package main

import (
	"fmt"
	"log"

	"acpsgd/internal/core"
)

func main() {
	// 1. Real distributed training: 4 data-parallel workers, gradients
	// compressed with ACP-SGD (rank 2) and aggregated with ring all-reduce.
	hist, err := core.Train(core.TrainConfig{
		Method:         "acp:rank=2",
		Model:          "mlp",
		Workers:        4,
		BatchPerWorker: 32,
		Epochs:         10,
		LR:             0.05,
	})
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Println("ACP-SGD on 4 workers (Gaussian mixture task):")
	for _, s := range hist.Stats {
		fmt.Printf("  epoch %2d  loss %.4f  test accuracy %.1f%%\n", s.Epoch, s.TrainLoss, 100*s.TestAcc)
	}
	fmt.Printf("final accuracy: %.1f%%\n\n", 100*hist.FinalTestAcc)

	// 2. Testbed simulation: one BERT-Base iteration on 32 GPUs / 10GbE
	// under S-SGD vs ACP-SGD (the paper's headline comparison).
	for _, method := range []string{"ssgd", "acp"} {
		r, err := core.SimulateIteration(core.IterationConfig{
			Model:  "bert-base",
			Method: method,
		})
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		fmt.Printf("%-6s on 32xGPU/10GbE: %4.0fms/iter (ff&bp %3.0f, compress %3.0f, comm %3.0f)\n",
			method, r.TotalSec*1e3, r.FFBPSec*1e3, r.CompressSec*1e3, r.CommSec*1e3)
	}
}
