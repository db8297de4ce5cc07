// Cluster scaling study (paper Figs. 12-13): sweep worker counts and
// network fabrics on the testbed simulator and print iteration times for
// S-SGD, Power-SGD* and ACP-SGD.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

func main() {
	model := flag.String("model", "bert-base", "resnet50 | resnet152 | bert-base | bert-large")
	flag.Parse()

	spec, err := models.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	cellCfg := func(method, network string, workers int, noOverlap bool) string {
		// Every cell runs WFBP + tensor fusion, which makes "power*" the
		// optimized Power-SGD* of Table III. An unknown name leaves Method
		// or Net invalid, which Simulate rejects.
		m, _, _ := sim.ByName(strings.TrimSuffix(method, "*"))
		net, _ := sim.NetByName(network)
		r, err := sim.Simulate(sim.Config{
			Model:     spec,
			Method:    m,
			Mode:      sim.ModeWFBPTF,
			Workers:   workers,
			Net:       net,
			GPU:       sim.DefaultGPU(),
			NoOverlap: noOverlap,
		})
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		if r.OOM {
			return "OOM"
		}
		return fmt.Sprintf("%.0fms", r.TotalSec*1e3)
	}
	cell := func(method, network string, workers int) string {
		return cellCfg(method, network, workers, false)
	}

	fmt.Printf("Worker scaling on 10GbE (%s):\n", *model)
	fmt.Printf("%-8s %-10s %-12s %-10s\n", "GPUs", "S-SGD", "Power-SGD*", "ACP-SGD")
	for _, workers := range []int{8, 16, 32, 64, 128} {
		fmt.Printf("%-8d %-10s %-12s %-10s\n",
			workers, cell("ssgd", "10gbe", workers), cell("power*", "10gbe", workers), cell("acp", "10gbe", workers))
	}

	fmt.Printf("\nBandwidth sweep on 32 GPUs (%s):\n", *model)
	fmt.Printf("%-8s %-10s %-12s %-10s\n", "Net", "S-SGD", "Power-SGD*", "ACP-SGD")
	for _, network := range []string{"1gbe", "10gbe", "100gbib"} {
		fmt.Printf("%-8s %-10s %-12s %-10s\n",
			network, cell("ssgd", network, 32), cell("power*", network, 32), cell("acp", network, 32))
	}

	// Overlap ablation (§IV / Fig. 9's lever in isolation): same bucketing,
	// collectives launched wait-free during backward vs. only after it — the
	// knob the real trainer exposes as Config.Overlap.
	fmt.Printf("\nOverlap ablation on 32 GPUs / 10GbE (%s):\n", *model)
	fmt.Printf("%-12s %-12s %-12s\n", "Method", "overlap=on", "overlap=off")
	for _, method := range []string{"ssgd", "acp"} {
		fmt.Printf("%-12s %-12s %-12s\n", method,
			cellCfg(method, "10gbe", 32, false), cellCfg(method, "10gbe", 32, true))
	}
}
