// Benchmark harness: one benchmark per paper table/figure (regenerating the
// experiment via internal/exp) plus micro-benchmarks of the real substrate
// components (collectives, compressors, layers) and the ablation benches
// (sensitivity studies beyond the paper). Run with:
//
//	go test -bench=. -benchmem
//
// Every micro-benchmark delegates to the named suite in internal/bench, the
// same cases `acpbench -baseline` records into BENCH_<date>.json perf
// baselines — keeping one definition means `go test -bench` and the
// regression harness can never drift apart.
package acpsgd_test

import (
	"fmt"
	"testing"

	"acpsgd/internal/bench"
	"acpsgd/internal/exp"
)

// benchExp runs one registered experiment per iteration.
func benchExp(b *testing.B, id string) {
	b.Helper()
	opts := exp.ConvOptions{Epochs: 2, Workers: 2}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table / figure -----------------------------

func BenchmarkTableI(b *testing.B)  { benchExp(b, "table1") }
func BenchmarkTableII(b *testing.B) { benchExp(b, "table2") }
func BenchmarkFig2(b *testing.B)    { benchExp(b, "fig2") }
func BenchmarkFig3(b *testing.B)    { benchExp(b, "fig3") }
func BenchmarkFig5(b *testing.B)    { benchExp(b, "fig5") }

// BenchmarkFig6 and BenchmarkFig7 run the real convergence experiments at a
// reduced scale (2 epochs, 2 workers) so the full harness stays fast; use
// cmd/acpbench -exp fig6 -epochs 16 for the full-shape run.
func BenchmarkFig6(b *testing.B)        { benchExp(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExp(b, "fig7") }
func BenchmarkTableIII(b *testing.B)    { benchExp(b, "table3") }
func BenchmarkFig8(b *testing.B)        { benchExp(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExp(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExp(b, "fig10") }
func BenchmarkFig11a(b *testing.B)      { benchExp(b, "fig11a") }
func BenchmarkFig11b(b *testing.B)      { benchExp(b, "fig11b") }
func BenchmarkFig12(b *testing.B)       { benchExp(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExp(b, "fig13") }
func BenchmarkMicroFusion(b *testing.B) { benchExp(b, "micro") }

// --- real-substrate micro-benchmarks (internal/bench suite) --------------

// suite runs the named case from the shared micro-benchmark suite.
func suite(b *testing.B, name string) {
	b.Helper()
	c, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	c.F(b)
}

func BenchmarkRingAllReduce4x64k(b *testing.B)     { suite(b, "RingAllReduce4x64k") }
func BenchmarkRingAllReduce8x64k(b *testing.B)     { suite(b, "RingAllReduce8x64k") }
func BenchmarkRingAllReduce4x1M(b *testing.B)      { suite(b, "RingAllReduce4x1M") }
func BenchmarkRingAllReduceAsync4x1M(b *testing.B) { suite(b, "RingAllReduceAsync4x1M") }

// BenchmarkTCPFrameCRC4x1M is the ring all-reduce over real loopback TCP,
// pricing the CRC32C-trailed wire path end to end (framing + checksum on
// send, verification on receive).
func BenchmarkTCPFrameCRC4x1M(b *testing.B) { suite(b, "TCPFrameCRC4x1M") }

// BenchmarkOverlapStep times one synchronized 2-worker training step on a
// latency-injected transport with the two comm-launch schedules: overlap=on
// (wait-free backprop) should beat overlap=off (launch after backward) by
// roughly the backward time that communication hides behind. Sub-benchmark
// names (on/off) match the suite case names acpbench -baseline records.
func BenchmarkOverlapStep(b *testing.B) {
	for _, mode := range bench.OverlapModes {
		b.Run(mode.String(), func(b *testing.B) { suite(b, "OverlapStep/"+mode.String()) })
	}
}

func BenchmarkPipelinedAllReduce4x1M(b *testing.B) { suite(b, "PipelinedAllReduce4x1M") }

// BenchmarkPipelinedStep times one synchronized 2-worker QSGD training step
// on an alpha-beta-injected transport across pipeline chunk counts:
// chunks>0 overlaps encode/wire/decode inside every fusion buffer and should
// beat the unpipelined chunks=0 replay baseline. Sub-benchmark names
// (chunks=N) match the suite case names acpbench -baseline records.
func BenchmarkPipelinedStep(b *testing.B) {
	for _, chunks := range bench.PipelineChunkCounts {
		name := fmt.Sprintf("chunks=%d", chunks)
		b.Run(name, func(b *testing.B) { suite(b, "PipelinedStep/"+name) })
	}
}

func BenchmarkAllGather4x64KB(b *testing.B) { suite(b, "AllGather4x64KB") }

// Compressor kernels: encode throughput plus the fused 4-peer decode at 1M
// elements (the hottest un-hideable path per the paper's analysis).
func BenchmarkSignEncode1M(b *testing.B)       { suite(b, "SignEncode1M") }
func BenchmarkSignDecode1M(b *testing.B)       { suite(b, "SignDecode1M") }
func BenchmarkSignDecode4x1M(b *testing.B)     { suite(b, "SignDecode4x1M") }
func BenchmarkTopKExact1M(b *testing.B)        { suite(b, "TopKExact1M") }
func BenchmarkTopKSampled1M(b *testing.B)      { suite(b, "TopKSampled1M") }
func BenchmarkTopKDecode4x1M(b *testing.B)     { suite(b, "TopKDecode4x1M") }
func BenchmarkDGCEncode1M(b *testing.B)        { suite(b, "DGCEncode1M") }
func BenchmarkDGCDecode4x1M(b *testing.B)      { suite(b, "DGCDecode4x1M") }
func BenchmarkQSGDEncode1M(b *testing.B)       { suite(b, "QSGDEncode1M") }
func BenchmarkQSGDDecode4x1M(b *testing.B)     { suite(b, "QSGDDecode4x1M") }
func BenchmarkTernGradDecode4x1M(b *testing.B) { suite(b, "TernGradDecode4x1M") }

func BenchmarkPowerCompress512x512r4(b *testing.B) { suite(b, "PowerCompress512x512r4") }
func BenchmarkACPCompress512x512r4(b *testing.B)   { suite(b, "ACPCompress512x512r4") }

func BenchmarkOrthogonalize512x32(b *testing.B) { suite(b, "Orthogonalize512x32") }
func BenchmarkMatMul256(b *testing.B)           { suite(b, "MatMul256") }
func BenchmarkMatMulTA256x64(b *testing.B)      { suite(b, "MatMulTA256x64") }
func BenchmarkMatMulTB256(b *testing.B)         { suite(b, "MatMulTB256") }
func BenchmarkMiniVGGStep(b *testing.B)         { suite(b, "MiniVGGStep") }
func BenchmarkSimulateIteration(b *testing.B)   { suite(b, "SimulateBERTACP32") }

// BenchmarkFleetEngine1000 prices a 1000-node chaos scenario end to end —
// the fleet-scale scenario engine's perf gate (CI diffs it against the
// committed fleet baseline).
func BenchmarkFleetEngine1000(b *testing.B) { suite(b, "FleetEngine1000") }

// --- ablation benches (extensions beyond the paper) ------------------------

// BenchmarkAblationInterference sweeps the GPU interference rate and
// reports the resulting Power-SGD* time on BERT-Large: the knob behind the
// paper's §III-C WFBP slowdown. Sub-benchmark names (rate=0.35, ...) match
// the suite case names acpbench -baseline records.
func BenchmarkAblationInterference(b *testing.B) {
	for _, rate := range bench.InterferenceRates {
		name := bench.RateName(rate)
		b.Run(name, func(b *testing.B) { suite(b, "AblationInterference/"+name) })
	}
}

// BenchmarkAblationAlpha sweeps the per-hop latency and reports the ACP
// no-fusion time on BERT-Large: startup-cost sensitivity, the reason tensor
// fusion matters (§IV-B). Sub-benchmark names (alpha_us=12, ...) match the
// suite case names acpbench -baseline records.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range bench.AlphaSeconds {
		name := bench.AlphaName(alpha)
		b.Run(name, func(b *testing.B) { suite(b, "AblationAlpha/"+name) })
	}
}

// BenchmarkAblationEF compares ACP-SGD compression throughput with and
// without error feedback on the real compressor.
func BenchmarkAblationEF(b *testing.B) {
	for _, useEF := range []bool{true, false} {
		name := bench.EFName(useEF)
		b.Run(name, func(b *testing.B) { suite(b, "AblationEF/"+name) })
	}
}

// BenchmarkAblationSelection compares exact and multi-sampling top-k
// selection cost (footnote 2's motivation).
func BenchmarkAblationSelection(b *testing.B) {
	for _, sel := range bench.Selections {
		b.Run(sel.Name, func(b *testing.B) { suite(b, "AblationSelection/"+sel.Name) })
	}
}
