// Transformer convergence demo: train the MiniTransformer (embedding +
// self-attention + position-wise FFN, the BERT-family stand-in) on the
// synthetic sequence-classification task with S-SGD and ACP-SGD, showing
// the accuracy parity the paper reports for transformers at modest ranks.
package main

import (
	"flag"
	"fmt"
	"log"

	"acpsgd/internal/core"
)

func main() {
	epochs := flag.Int("epochs", 10, "training epochs")
	workers := flag.Int("workers", 4, "data-parallel workers")
	rank := flag.Int("rank", 4, "Power-SGD and ACP-SGD rank")
	flag.Parse()

	for _, method := range []string{"ssgd", "power", "acp"} {
		spec := method
		if method != "ssgd" {
			spec = fmt.Sprintf("%s:rank=%d", method, *rank)
		}
		hist, err := core.Train(core.TrainConfig{
			Method:         spec,
			Model:          "minitransformer",
			Workers:        *workers,
			BatchPerWorker: 16,
			Epochs:         *epochs,
			LR:             0.02,
			WarmupEpochs:   1,
			DecayEpochs:    []int{*epochs / 2, *epochs * 3 / 4},
			TrainExamples:  1024,
			TestExamples:   256,
			Classes:        4,
		})
		if err != nil {
			log.Fatalf("%s: %v", method, err)
		}
		fmt.Printf("%-6s  final accuracy %.1f%%  (loss %.3f)\n",
			method, 100*hist.FinalTestAcc, hist.Stats[len(hist.Stats)-1].TrainLoss)
	}
}
