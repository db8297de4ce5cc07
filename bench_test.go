// Benchmark harness: one sub-benchmark per paper table/figure (regenerating
// the experiment via internal/exp) and one per micro-benchmark of the real
// substrate (kernels, compressors, codec, collectives). Run with:
//
//	go test -run '^$' -bench=. -benchmem
//
// BenchmarkSuite runs the named suite in internal/bench, the same cases
// `acpbench -baseline` records into BENCH_<date>.json perf baselines, under
// the same names — keeping one definition means `go test -bench` and the
// regression harness can never drift apart.
package acpsgd_test

import (
	"testing"

	"acpsgd/internal/bench"
	"acpsgd/internal/exp"
)

// BenchmarkSuite runs every internal/bench case as a sub-benchmark named
// after the case, e.g. BenchmarkSuite/RingAllReduce4x1M.
func BenchmarkSuite(b *testing.B) {
	for _, c := range bench.Suite() {
		b.Run(c.Name, c.F)
	}
}

// BenchmarkExp regenerates every registered experiment once per iteration.
// The convergence experiments (fig6, fig7) run at a reduced scale (2 epochs,
// 2 workers) so the harness stays fast; use `acpbench -exp fig6 -epochs 16`
// for the full-shape run.
func BenchmarkExp(b *testing.B) {
	opts := exp.ConvOptions{Epochs: 2, Workers: 2}
	for _, id := range exp.Names() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(id, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
