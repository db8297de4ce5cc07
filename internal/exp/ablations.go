package exp

import (
	"fmt"
	"math/rand"
	"time"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

// AblationInterference sweeps the GPU stream-interference rate — the
// calibrated constant behind the §III-C "WFBP hurts Power-SGD" result — and
// shows its effect on Power-SGD* and ACP-SGD (which is immune: its
// compression is inline, not concurrent).
func AblationInterference() (*Table, error) {
	t := &Table{
		ID:      "ablation-interference",
		Title:   "Interference-rate sensitivity (BERT-Large, 32 GPUs, 10GbE; ms)",
		Columns: []string{"Rate", "Power-SGD*", "ACP-SGD", "Power 1-GPU WFBP slowdown"},
		Notes: []string{
			"rate = per-stream speed when compression overlaps backprop; <0.5 makes overlap a net loss",
			"ACP-SGD is unaffected by design: its compression never runs concurrently with backprop",
		},
	}
	for _, rate := range []float64{0.5, 0.35, 0.22, 0.15} {
		gpu := sim.DefaultGPU()
		gpu.InterferenceRate = rate
		mutate := func(c *sim.Config) { c.GPU = gpu }
		power, err := runSim(models.BERTLarge(), sim.MethodPower, sim.ModeWFBPTF, mutate)
		if err != nil {
			return nil, err
		}
		acp, err := runSim(models.BERTLarge(), sim.MethodACP, sim.ModeWFBPTF, mutate)
		if err != nil {
			return nil, err
		}
		// 1-GPU slowdown (the paper's 13% observation).
		oneNaive, err := runSim(models.ResNet50(), sim.MethodPower, sim.ModeNaive, func(c *sim.Config) {
			c.GPU = gpu
			c.Workers = 1
			c.Net = sim.Network{}
		})
		if err != nil {
			return nil, err
		}
		oneWFBP, err := runSim(models.ResNet50(), sim.MethodPower, sim.ModeWFBPTF, func(c *sim.Config) {
			c.GPU = gpu
			c.Workers = 1
			c.Net = sim.Network{}
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.2f", rate),
			fmtCell(power),
			fmtCell(acp),
			fmt.Sprintf("%.0f%%", 100*(oneWFBP.TotalSec/oneNaive.TotalSec-1)),
		)
	}
	return t, nil
}

// AblationAlpha sweeps the per-hop network latency and reports the
// no-fusion ACP-SGD time: the startup-cost sensitivity that motivates
// tensor fusion (§IV-B).
func AblationAlpha() (*Table, error) {
	t := &Table{
		ID:      "ablation-alpha",
		Title:   "Startup-latency sensitivity (BERT-Large ACP-SGD, 32 GPUs; ms)",
		Columns: []string{"Alpha (us/hop)", "No fusion", "25MB fusion", "Fusion gain"},
	}
	for _, alpha := range []float64{2e-6, 6e-6, 12e-6, 25e-6, 50e-6} {
		net := sim.Net10GbE()
		net.Alpha = alpha
		noFusion, err := runSim(models.BERTLarge(), sim.MethodACP, sim.ModeWFBPTF, func(c *sim.Config) {
			c.Net = net
			c.NoFusion = true
		})
		if err != nil {
			return nil, err
		}
		fused, err := runSim(models.BERTLarge(), sim.MethodACP, sim.ModeWFBPTF, func(c *sim.Config) {
			c.Net = net
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f", alpha*1e6),
			fmtCell(noFusion),
			fmtCell(fused),
			speedup(noFusion.TotalSec, fused.TotalSec),
		)
	}
	return t, nil
}

// AblationSelection measures (for real, on this machine) the wall-clock
// cost of exact vs multi-sampling top-k selection across tensor sizes —
// the trade-off behind the paper's footnote 2.
func AblationSelection() (*Table, error) {
	t := &Table{
		ID:      "ablation-selection",
		Title:   "Top-k selection cost, measured on this host (ms per call)",
		Columns: []string{"Elements", "Exact", "Sampled", "Sampled speedup"},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.NormFloat64()
		}
		k := n / 1000
		measure := func(sel compress.Selection) float64 {
			tk := compress.NewTopK(n, k, sel, false, int64(n))
			const reps = 5
			start := time.Now()
			for i := 0; i < reps; i++ {
				tk.Encode(i, grad)
			}
			return time.Since(start).Seconds() / reps
		}
		exact := measure(compress.SelectExact)
		sampled := measure(compress.SelectSampled)
		t.AddRow(n, fmt.Sprintf("%.2f", exact*1e3), fmt.Sprintf("%.2f", sampled*1e3),
			speedup(exact, sampled))
	}
	return t, nil
}
