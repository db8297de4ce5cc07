// Command acpsim runs one-off testbed simulations: pick a model, method,
// execution mode and cluster configuration, get the paper-style iteration
// breakdown. The spec's rank and ratio params reach the cost model; unset,
// they take the model's paper default.
//
//	acpsim -model bert-large -method acp -workers 64 -network 1gbe
//	acpsim -model resnet152 -method power -mode wfbp          # Fig. 9 cell
//	acpsim -model bert-large -method acp:rank=256 -buffer 50
//	acpsim -model bert-large -method power*:rank=32           # Fig. 10 cell
//	acpsim -model resnet50 -method topk:ratio=0.01
//
// With -scenario it instead executes a declarative fleet-scale run — a
// generated heterogeneous fleet with seeded failure injection — and prints
// the machine-readable report:
//
//	acpsim -scenario scenarios/1000-node-chaos.json
//	acpsim -scenario scenarios/zone-outage.json -seed 7 -report out.json
//
// A scenario plus a seed is bit-reproducible: the same pair always prints
// byte-identical JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("acpsim", flag.ContinueOnError)
	model := fs.String("model", "resnet50", "resnet50 | resnet152 | bert-base | bert-large | vgg16 | resnet18")
	method := fs.String("method", "acp",
		"compressor spec name[:key=value,...]; simulatable: ssgd | sign | topk | power | power* | acp")
	mode := fs.String("mode", "", "naive | wfbp | wfbp+tf (default: the paper's setting per method)")
	workers := fs.Int("workers", 32, "number of GPUs")
	batch := fs.Int("batch", 0, "per-GPU batch size (0 = paper default)")
	network := fs.String("network", "10gbe", "1gbe | 10gbe | 100gbib")
	bufferMB := fs.Int("buffer", 0, "fusion buffer MB (0 = 25MB default)")
	noFusion := fs.Bool("no-fusion", false, "disable tensor fusion")
	slowOrth := fs.Bool("slow-orth", false, "original Power-SGD orthogonalization cost")
	overlap := fs.Bool("overlap", true, "overlap communication with back-propagation (false = launch after backward)")
	chunks := fs.Int("chunks", 0, "pipeline chunks per fusion buffer in the cost model (0 = unpipelined)")
	scenario := fs.String("scenario", "", "fleet scenario file; switches to fleet-simulation mode")
	seed := fs.Int64("seed", 0, "override the scenario's seed (0 = use the file's)")
	report := fs.String("report", "", "also write the scenario report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *scenario != "" {
		return runScenario(*scenario, *seed, *report)
	}

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "acpsim: %v\n", err)
		return 1
	}
	spec, err := models.ByName(*model)
	if err != nil {
		return fail(err)
	}
	m, md, mspec, err := parseSimMethod(*method, *mode)
	if err != nil {
		return fail(err)
	}
	net, ok := sim.NetByName(*network)
	if !ok {
		return fail(fmt.Errorf("unknown network %q", *network))
	}
	// Spec params thread into the cost model. Resolve fills in no defaults,
	// so an unset param reads as 0: the model's paper default.
	rank, _ := mspec.Params.Int("rank", 0)
	ratio, _ := mspec.Params.Float("ratio", 0)
	r, err := sim.Simulate(sim.Config{
		Model:          spec,
		Method:         m,
		Mode:           md,
		Workers:        *workers,
		Batch:          *batch,
		Rank:           rank,
		TopKRatio:      ratio,
		Net:            net,
		GPU:            sim.DefaultGPU(),
		BufferBytes:    *bufferMB * 1024 * 1024,
		NoFusion:       *noFusion,
		SlowOrth:       *slowOrth,
		NoOverlap:      !*overlap,
		PipelineChunks: *chunks,
	})
	if err != nil {
		return fail(err)
	}
	if r.OOM {
		fmt.Printf("OOM: estimated %.1fGB exceeds GPU memory\n", r.MemoryBytes/1e9)
		return 0
	}
	fmt.Printf("model=%s method=%s workers=%d network=%s\n", *model, *method, *workers, *network)
	fmt.Printf("iteration        %8.1f ms\n", r.TotalSec*1e3)
	fmt.Printf("  ff&bp          %8.1f ms\n", r.FFBPSec*1e3)
	fmt.Printf("  compression    %8.1f ms\n", r.CompressSec*1e3)
	fmt.Printf("    encode       %8.1f ms\n", r.EncodeSec*1e3)
	fmt.Printf("    decode       %8.1f ms\n", r.DecodeSec*1e3)
	fmt.Printf("  comm (wire)    %8.1f ms\n", r.WireSec*1e3)
	fmt.Printf("  comm (exposed) %8.1f ms\n", r.CommSec*1e3)
	fmt.Printf("payload          %8.1f MB/iter (%.0fx compression)\n", r.PayloadBytes/1e6, r.CompressionRat)
	fmt.Printf("gpu memory est.  %8.1f GB\n", r.MemoryBytes/1e9)
	return 0
}

// parseSimMethod resolves a CLI method spec and mode name to simulator
// enums, with the paper's default execution mode per method. The method
// name/params go through the compress registry (so aliases and param
// validation are shared with training); sim.ByName then selects the cost
// model for the canonical name.
func parseSimMethod(method, mode string) (sim.Method, sim.Mode, compress.Spec, error) {
	s := strings.ToLower(strings.TrimSpace(method))
	if s == "" {
		s = "ssgd"
	}
	// "power*" is the simulator's spelling for WFBP+TF-optimized Power-SGD
	// (Table III); strip the star before registry resolution.
	head, _, _ := strings.Cut(s, ":")
	star := head == "power*" || head == "powerstar" || head == "power-sgd*"
	if star {
		s = "power" + strings.TrimPrefix(s, head)
	}
	spec, err := compress.ParseSpec(s)
	if err != nil {
		return 0, 0, compress.Spec{}, err
	}
	if _, spec, err = compress.Resolve(spec); err != nil {
		return 0, 0, compress.Spec{}, err
	}
	m, defMode, ok := sim.ByName(spec.Name)
	if !ok {
		return 0, 0, compress.Spec{}, fmt.Errorf("method %q has no simulator cost model (simulatable: %s)",
			spec.Name, strings.Join(sim.Names(), ", "))
	}
	if star {
		defMode = sim.ModeWFBPTF
	}
	switch strings.ToLower(mode) {
	case "":
		return m, defMode, spec, nil
	case "naive":
		return m, sim.ModeNaive, spec, nil
	case "wfbp":
		return m, sim.ModeWFBP, spec, nil
	case "wfbp+tf", "wfbptf", "tf":
		return m, sim.ModeWFBPTF, spec, nil
	default:
		return 0, 0, compress.Spec{}, fmt.Errorf("unknown mode %q", mode)
	}
}

// runScenario executes a declarative fleet scenario and prints its canonical
// report bytes to stdout (and optionally to -report).
func runScenario(path string, seed int64, reportPath string) int {
	sc, err := sim.LoadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acpsim: %v\n", err)
		return 1
	}
	if seed == 0 {
		seed = sc.Seed
	}
	rep, err := sim.RunScenarioSeed(sc, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acpsim: %v\n", err)
		return 1
	}
	data, err := rep.Encode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acpsim: %v\n", err)
		return 1
	}
	os.Stdout.Write(data)
	if reportPath != "" {
		if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "acpsim: %v\n", err)
			return 1
		}
	}
	return 0
}
