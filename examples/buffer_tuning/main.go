// Buffer-size tuning study (paper Fig. 10 and §IV-B): sweep the tensor
// fusion buffer size for Power-SGD* and ACP-SGD on BERT-Large and show why
// ACP-SGD's compression-rate-scaled buffers make the 25MB default robust
// across ranks. The second half sweeps the fusion buffer against the
// pipeline chunk count (-chunks on acpsim/acptrain): larger buffers leave
// more encode/wire/decode serialization inside each buffer for chunk
// pipelining to reclaim, while chunking a tiny buffer only adds per-chunk
// latency — the paper's fusion×pipelining interaction (§III-B).
package main

import (
	"flag"
	"fmt"
	"log"

	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

func main() {
	model := flag.String("model", "bert-large", "benchmark model")
	flag.Parse()

	spec, err := models.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	sizesMB := []int{0, 5, 25, 50, 100, 500, 1000, 1500}
	for _, rank := range []int{32, 256} {
		fmt.Printf("%s, rank %d (32 GPUs, 10GbE):\n", *model, rank)
		fmt.Printf("%-12s %-14s %-10s\n", "buffer(MB)", "Power-SGD*", "ACP-SGD")
		for _, mb := range sizesMB {
			row := make([]string, 0, 2)
			// Power-SGD* is Power-SGD under WFBP + tensor fusion (Table III).
			for _, method := range []sim.Method{sim.MethodPower, sim.MethodACP} {
				cfg := sim.Config{
					Model:   spec,
					Method:  method,
					Mode:    sim.ModeWFBPTF,
					Workers: 32,
					Rank:    rank,
					Net:     sim.Net10GbE(),
					GPU:     sim.DefaultGPU(),
				}
				if mb == 0 {
					cfg.NoFusion = true
				} else {
					cfg.BufferBytes = mb * 1024 * 1024
				}
				r, err := sim.Simulate(cfg)
				if err != nil {
					log.Fatalf("simulate: %v", err)
				}
				row = append(row, fmt.Sprintf("%.0fms", r.TotalSec*1e3))
			}
			fmt.Printf("%-12d %-14s %-10s\n", mb, row[0], row[1])
		}
		fmt.Println()
	}
	fmt.Println("ACP-SGD stays near its optimum across buffer sizes because the")
	fmt.Println("compressed buffer budget is scaled by the compression rate (§IV-B).")
	fmt.Println()

	// Fusion × pipelining: chunk the buckets of a decode-heavy gather method
	// (Sign-SGD) at several buffer sizes. Chunk pipelining pays off where
	// fusion created big serialized encode→wire→decode spans.
	// 8 GPUs: Sign-SGD's vote workspace OOMs at 32 (Fig. 2), and the sweep
	// is about the chunking interaction, not the memory wall.
	chunkCounts := []int{0, 2, 4, 8, 16}
	fmt.Printf("Sign-SGD fusion x pipelining (8 GPUs, 10GbE):\n")
	fmt.Printf("%-12s", "buffer(MB)")
	for _, ch := range chunkCounts {
		fmt.Printf(" %-10s", fmt.Sprintf("chunks=%d", ch))
	}
	fmt.Println()
	for _, mb := range []int{5, 25, 100, 500} {
		fmt.Printf("%-12d", mb)
		for _, ch := range chunkCounts {
			r, err := sim.Simulate(sim.Config{
				Model:          spec,
				Method:         sim.MethodSign,
				Mode:           sim.ModeWFBPTF,
				Workers:        8,
				Net:            sim.Net10GbE(),
				GPU:            sim.DefaultGPU(),
				BufferBytes:    mb * 1024 * 1024,
				PipelineChunks: ch,
			})
			if err != nil {
				log.Fatalf("simulate: %v", err)
			}
			fmt.Printf(" %-10s", fmt.Sprintf("%.0fms", r.TotalSec*1e3))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Chunking splits each buffer's encode/wire/decode so they overlap")
	fmt.Println("(paper §III-B); sweep -chunks on acptrain/acpsim to reproduce.")
}
