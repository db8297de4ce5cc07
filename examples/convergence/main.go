// Convergence comparison (paper Figs. 6-7): train MiniVGG and MiniResNet on
// the synthetic image task with S-SGD, Power-SGD and ACP-SGD, then run the
// ACP-SGD ablations (no error feedback, no query reuse) and print the
// accuracy trajectories.
package main

import (
	"flag"
	"fmt"
	"log"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/train"
)

func main() {
	epochs := flag.Int("epochs", 16, "training epochs")
	workers := flag.Int("workers", 4, "data-parallel workers")
	model := flag.String("model", "minivgg", "minivgg | miniresnet")
	flag.Parse()

	// A 10-class synthetic image task: 2048 train / 512 test examples.
	build, all, err := models.Trainable(*model, 42, 2048+512, 10)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	trainSet, testSet, err := all.Split(2048)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	run := func(label, method string) {
		hist, err := train.Run(train.Config{
			Spec:           compress.MustSpec(method),
			Workers:        *workers,
			BatchPerWorker: 32,
			Epochs:         *epochs,
			Momentum:       0.9,
			Schedule: train.Schedule{
				BaseLR:       0.01,
				WarmupEpochs: *epochs / 8,
				DecayEpochs:  []int{*epochs / 2, *epochs * 3 / 4},
			},
			Seed: 42,
		}, build, trainSet, testSet)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-22s final %.1f%%  trajectory:", label, 100*hist.FinalTestAcc)
		step := len(hist.Stats)/6 + 1
		for i := 0; i < len(hist.Stats); i += step {
			fmt.Printf(" %.0f", 100*hist.Stats[i].TestAcc)
		}
		fmt.Println()
	}

	fmt.Printf("Fig 6 style comparison (%s, %d workers, %d epochs)\n", *model, *workers, *epochs)
	// Methods are compressor specs: every knob rides along in the string,
	// and registry-only methods like DGC need no dedicated config fields.
	run("S-SGD", "ssgd")
	run("Power-SGD (r=2)", "power:rank=2")
	run("ACP-SGD (r=2)", "acp:rank=2")
	run("Top-k (1%, exact)", "topk:ratio=0.01,selection=exact")
	run("DGC (1%)", "dgc:ratio=0.01")

	fmt.Println("\nFig 7 style ablation (rank 1)")
	run("ACP-SGD", "acp:rank=1")
	run("ACP-SGD w/o EF", "acp:rank=1,ef=false")
	run("ACP-SGD w/o reuse", "acp:rank=1,reuse=false")
}
