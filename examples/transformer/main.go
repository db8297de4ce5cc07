// Transformer convergence demo: train the MiniTransformer (embedding +
// self-attention + position-wise FFN, the BERT-family stand-in) on the
// synthetic sequence-classification task with S-SGD and ACP-SGD, showing
// the accuracy parity the paper reports for transformers at modest ranks.
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
	epochs := flag.Int("epochs", 10, "training epochs")
	workers := flag.Int("workers", 4, "data-parallel workers")
	rank := flag.Int("rank", 4, "Power-SGD and ACP-SGD rank")
	flag.Parse()

	// A 4-class sequence task: 1024 train / 256 test examples.
	build, all, err := models.Trainable("minitransformer", 42, 1024+256, 4)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	trainSet, testSet, err := all.Split(1024)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	for _, method := range []string{"ssgd", "power", "acp"} {
		spec := method
		if method != "ssgd" {
			spec = fmt.Sprintf("%s:rank=%d", method, *rank)
		}
		hist, err := train.Run(train.Config{
			Spec:           compress.MustSpec(spec),
			Workers:        *workers,
			BatchPerWorker: 16,
			Epochs:         *epochs,
			Momentum:       0.9,
			Schedule: train.Schedule{
				BaseLR:       0.02,
				WarmupEpochs: 1,
				DecayEpochs:  []int{*epochs / 2, *epochs * 3 / 4},
			},
			Seed: 42,
		}, build, trainSet, testSet)
		if err != nil {
			log.Fatalf("%s: %v", method, err)
		}
		fmt.Printf("%-6s  final accuracy %.1f%%  (loss %.3f)\n",
			method, 100*hist.FinalTestAcc, hist.Stats[len(hist.Stats)-1].TrainLoss)
	}
}
