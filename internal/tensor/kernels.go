package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"acpsgd/internal/coop"
)

// This file holds the hot-path matmul kernels and the package-level worker
// pool they shard rows across. The kernels are register-tiled (4 dst rows x
// 2 k-columns for MatMul/MatMulTA, 4 dot-product accumulators for MatMulTB):
// on one core this roughly halves memory traffic per FLOP versus the naive
// triple loop, and above a FLOP threshold the row range is split across
// GOMAXPROCS pool workers. Small matrices (Power-SGD/ACP rank-r factors)
// stay on the serial path so they never pay goroutine dispatch overhead.

// defaultParallelFlops is the matmul cost (rows*cols*inner products) below
// which dispatch stays serial. At ~64k FLOPs the work is a few microseconds,
// the same order as handing chunks to the pool, so parallelism cannot win.
const defaultParallelFlops = 64 << 10

var (
	parallelFlops   atomic.Int64 // serial/parallel dispatch threshold
	workersOverride atomic.Int32 // 0 = use GOMAXPROCS
)

func init() { parallelFlops.Store(defaultParallelFlops) }

// SetParallelThreshold sets the FLOP count (product of the three matmul
// dimensions) above which kernels go parallel, returning the previous value.
// Tests use tiny thresholds to force the parallel path on small shapes.
func SetParallelThreshold(flops int) int {
	return int(parallelFlops.Swap(int64(flops)))
}

// SetParallelism overrides the number of row shards used by parallel
// kernels (0 restores the GOMAXPROCS default), returning the previous
// override. Tests use this to exercise the pool even on one CPU.
func SetParallelism(workers int) int {
	return int(workersOverride.Swap(int32(workers)))
}

func effectiveWorkers() int {
	if w := int(workersOverride.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// poolTask is one row-range of a parallel kernel invocation. Exactly one of
// fn and sfn is set; sfn additionally receives the shard index (RunShards).
type poolTask struct {
	fn     func(lo, hi int)
	sfn    func(shard, lo, hi int)
	shard  int
	lo, hi int
	wg     *sync.WaitGroup
}

func (t poolTask) run() {
	if t.sfn != nil {
		t.sfn(t.shard, t.lo, t.hi)
	} else {
		t.fn(t.lo, t.hi)
	}
}

var (
	poolOnce  sync.Once
	poolTasks chan poolTask
)

// startPool launches the package worker pool: GOMAXPROCS goroutines (at
// least one, so the cross-goroutine path exists even on a single CPU)
// draining a shared task queue. Workers run pure compute and never block, so
// submitters queueing behind a full channel always make progress.
func startPool() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	poolTasks = make(chan poolTask, 256)
	for i := 0; i < n; i++ {
		go func() {
			for t := range poolTasks {
				t.run()
				t.wg.Done()
			}
		}()
	}
}

// useParallel reports whether a kernel over the given row count and FLOP
// cost should be sharded across the pool. Callers check it before building
// the shard closure so the serial fast path stays allocation-free.
func useParallel(rows, flops int) bool {
	return effectiveWorkers() > 1 && rows >= 2 && int64(flops) >= parallelFlops.Load()
}

// parallelRows runs fn over [0, rows) split into contiguous shards. The
// caller's goroutine executes the first shard and then helps drain the pool
// queue while waiting, so a burst of concurrent matmuls (e.g. several
// training workers) degrades to cooperative serial execution instead of
// deadlocking or oversubscribing.
func parallelRows(rows int, fn func(lo, hi int)) {
	w := effectiveWorkers()
	poolOnce.Do(startPool)
	if w > rows {
		w = rows
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for s := 1; s < w; s++ {
		poolTasks <- poolTask{fn: fn, lo: s * rows / w, hi: (s + 1) * rows / w, wg: &wg}
	}
	fn(0, rows/w)
	// Help-drain: execute queued shards (ours or other submitters') until
	// our own are all done.
	for {
		select {
		case t := <-poolTasks:
			t.run()
			t.wg.Done()
		default:
			wg.Wait()
			return
		}
	}
}

// ShardCount reports how many contiguous shards a kernel over n units should
// split into under the package dispatch policy: 1 (serial) when the total
// work is below the parallel threshold or only one worker is configured,
// otherwise min(workers, n). Callers that need per-shard state (e.g. partial
// sums) size it with ShardCount and execute with RunShards. `work` is the
// kernel's total cost in the same units as SetParallelThreshold.
func ShardCount(n, work int) int {
	if !useParallel(n, work) {
		return 1
	}
	w := effectiveWorkers()
	if w > n {
		w = n
	}
	return w
}

// RunShards runs fn over [0, n) split into exactly `shards` contiguous
// ranges (the split ShardCount sized), sharing the package worker pool with
// the matmul kernels. shards <= 1 runs fn(0, 0, n) inline — the serial fast
// path stays dispatch-free. Like parallelRows, the caller's goroutine
// executes shard 0 and help-drains the queue while waiting, so concurrent
// submitters degrade to cooperative serial execution instead of
// deadlocking.
func RunShards(n, shards int, fn func(shard, lo, hi int)) {
	if shards <= 1 || n <= 0 {
		fn(0, 0, n)
		return
	}
	poolOnce.Do(startPool)
	if shards > n {
		shards = n
	}
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		poolTasks <- poolTask{sfn: fn, shard: s, lo: s * n / shards, hi: (s + 1) * n / shards, wg: &wg}
	}
	fn(0, 0, n/shards)
	for {
		select {
		case t := <-poolTasks:
			t.run()
			t.wg.Done()
		default:
			wg.Wait()
			return
		}
	}
}

// rowsInQuanta runs a row kernel over dst rows [i0,i1) one work quantum at a
// time, with a cooperative yield point (package coop) between quanta: the
// compute stream enters the scheduler there, and only while an asynchronous
// collective is in flight. rowFlops is the kernel's cost per dst row in the
// units of SetParallelThreshold. Quanta are whole 4-row register tiles
// counted from i0, so every row meets the same tile or tail path, and hence
// the same arithmetic, as in one undivided call; a call smaller than one
// quantum runs undivided and never yields. Serial calls and every shard of a
// parallel one go through here.
func rowsInQuanta(kernel func(dst, a, b *Matrix, i0, i1 int), rowFlops int, dst, a, b *Matrix, i0, i1 int) {
	step := max(4, (coop.QuantumFlops/max(1, rowFlops))&^3)
	for lo := i0; lo < i1; lo += step {
		if lo > i0 {
			coop.Yield()
		}
		kernel(dst, a, b, lo, min(lo+step, i1))
	}
}

// Scale writes dst[i] = a*src[i] over equal-length slices — the fused
// scaled-copy the decode/averaging paths use instead of a divide per
// element. dst and src may alias.
func Scale(a float64, src, dst []float64) {
	if len(src) != len(dst) {
		panic("tensor: Scale length mismatch")
	}
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] = a * src[i]
		dst[i+1] = a * src[i+1]
		dst[i+2] = a * src[i+2]
		dst[i+3] = a * src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] = a * src[i]
	}
}

// matMulRows computes dst rows [i0,i1) of dst = a*b with a 4x2 register
// tile: four dst rows accumulate from two b rows per pass, so each loaded
// b element feeds four FMAs and each dst element is touched n/2 times
// instead of n. All-zero a-tiles (common for ReLU-sparse gradients) skip
// the inner loop.
func matMulRows(dst, a, b *Matrix, i0, i1 int) {
	ac, bc := a.Cols, b.Cols
	i := i0
	for ; i+4 <= i1; i += 4 {
		ar0 := a.Data[i*ac : (i+1)*ac]
		ar1 := a.Data[(i+1)*ac : (i+2)*ac]
		ar2 := a.Data[(i+2)*ac : (i+3)*ac]
		ar3 := a.Data[(i+3)*ac : (i+4)*ac]
		dr0 := dst.Data[i*bc : (i+1)*bc]
		dr1 := dst.Data[(i+1)*bc : (i+2)*bc]
		dr2 := dst.Data[(i+2)*bc : (i+3)*bc]
		dr3 := dst.Data[(i+3)*bc : (i+4)*bc]
		for j := range dr0 {
			dr0[j], dr1[j], dr2[j], dr3[j] = 0, 0, 0, 0
		}
		k := 0
		for ; k+2 <= ac; k += 2 {
			a00, a01 := ar0[k], ar0[k+1]
			a10, a11 := ar1[k], ar1[k+1]
			a20, a21 := ar2[k], ar2[k+1]
			a30, a31 := ar3[k], ar3[k+1]
			if a00 == 0 && a01 == 0 && a10 == 0 && a11 == 0 &&
				a20 == 0 && a21 == 0 && a30 == 0 && a31 == 0 {
				continue
			}
			b0 := b.Data[k*bc : k*bc+bc]
			b1 := b.Data[(k+1)*bc : (k+1)*bc+bc]
			for j := 0; j < bc; j++ {
				bv0, bv1 := b0[j], b1[j]
				dr0[j] += a00*bv0 + a01*bv1
				dr1[j] += a10*bv0 + a11*bv1
				dr2[j] += a20*bv0 + a21*bv1
				dr3[j] += a30*bv0 + a31*bv1
			}
		}
		for ; k < ac; k++ {
			av0, av1, av2, av3 := ar0[k], ar1[k], ar2[k], ar3[k]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b.Data[k*bc : k*bc+bc]
			for j, bv := range brow {
				dr0[j] += av0 * bv
				dr1[j] += av1 * bv
				dr2[j] += av2 * bv
				dr3[j] += av3 * bv
			}
		}
	}
	for ; i < i1; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		drow := dst.Data[i*bc : (i+1)*bc]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*bc : k*bc+bc]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTARows computes dst rows [i0,i1) of dst = aᵀ*b. dst row i is a's
// column i, so the 4-row tile turns four strided column loads into one
// cache line touch per k.
func matMulTARows(dst, a, b *Matrix, i0, i1 int) {
	ac, bc := a.Cols, b.Cols
	i := i0
	for ; i+4 <= i1; i += 4 {
		dr0 := dst.Data[i*bc : (i+1)*bc]
		dr1 := dst.Data[(i+1)*bc : (i+2)*bc]
		dr2 := dst.Data[(i+2)*bc : (i+3)*bc]
		dr3 := dst.Data[(i+3)*bc : (i+4)*bc]
		for j := range dr0 {
			dr0[j], dr1[j], dr2[j], dr3[j] = 0, 0, 0, 0
		}
		for k := 0; k < a.Rows; k++ {
			base := k * ac
			av0, av1, av2, av3 := a.Data[base+i], a.Data[base+i+1], a.Data[base+i+2], a.Data[base+i+3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b.Data[k*bc : k*bc+bc]
			for j, bv := range brow {
				dr0[j] += av0 * bv
				dr1[j] += av1 * bv
				dr2[j] += av2 * bv
				dr3[j] += av3 * bv
			}
		}
	}
	for ; i < i1; i++ {
		drow := dst.Data[i*bc : (i+1)*bc]
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*ac+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*bc : k*bc+bc]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTBRows computes dst rows [i0,i1) of dst = a*bᵀ: dst[i][j] is the dot
// product of a row i and b row j, taken four b rows at a time so each loaded
// a element feeds four accumulators.
func matMulTBRows(dst, a, b *Matrix, i0, i1 int) {
	ac, dc := a.Cols, dst.Cols
	for i := i0; i < i1; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		drow := dst.Data[i*dc : (i+1)*dc]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*ac : j*ac+ac]
			b1 := b.Data[(j+1)*ac : (j+1)*ac+ac]
			b2 := b.Data[(j+2)*ac : (j+2)*ac+ac]
			b3 := b.Data[(j+3)*ac : (j+3)*ac+ac]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*ac : j*ac+ac]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// Axpy computes y += a*x over equal-length slices (the fused
// scale-and-accumulate Gram–Schmidt uses per projection).
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}
