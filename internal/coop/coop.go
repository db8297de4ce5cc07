// Package coop is the cooperative-scheduling contract between the compute
// stream and the communication stream of a training step.
//
// Wait-free back-propagation only overlaps when the per-rank communication
// goroutine actually runs while backward computes. With one compute stream
// per P (GOMAXPROCS = ranks, serial kernels) every P is inside a matmul loop
// that never enters the scheduler, so a launched collective's goroutine
// wake-ups, and the timers and channel hand-offs of the link underneath it,
// are serviced only at sysmon's 10 ms preemption or when backward ends: the
// launch happens at seal time and then hides nothing. The compute stream
// therefore yields at fixed work quanta (tensor's matmul kernels), at layer
// boundaries (nn.Model.BackwardHooked) and, where a layer is a long run of
// products each below a quantum, per batch element (nn.SelfAttention's
// backward), but only while a collective is in flight: the gauge below is
// raised by comm.AsyncCommunicator when an operation is submitted and lowered
// when it finishes. Forward, Power-SGD's post-backward blocking chain, the
// simulator and every non-training caller run with the gauge at zero and pay
// one atomic load per yield point.
package coop

import (
	"runtime"
	"sync/atomic"
)

// QuantumFlops is the matmul work (products of the three dimensions, the unit
// of tensor.SetParallelThreshold) between two yield points of a kernel call:
// about 60 us of the register-tiled kernels on one core. A kernel call
// smaller than one quantum never yields.
const QuantumFlops = 256 << 10

// inFlight counts asynchronous collectives submitted and not yet finished,
// process-wide: a rank's compute stream must yield for any rank's
// communication goroutine, since goroutines are not pinned to Ps.
var inFlight atomic.Int64

// Begin records one asynchronous collective entering flight. Every Begin is
// paired with exactly one End; a leaked count would make every kernel yield
// forever.
func Begin() { inFlight.Add(1) }

// End records one asynchronous collective finishing (or being abandoned).
func End() { inFlight.Add(-1) }

// InFlight reports the gauge.
func InFlight() int64 { return inFlight.Load() }

// Yield lets runnable communication goroutines and expired timers run on
// this P when a collective is in flight, and is one atomic load otherwise.
func Yield() {
	if inFlight.Load() > 0 {
		runtime.Gosched()
	}
}
