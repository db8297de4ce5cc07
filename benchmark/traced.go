package main

import (
	"errors"
	"math/rand"
	"path/filepath"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/data"
	"acpsgd/internal/train"
)

// tracePlan sizes the traced pass: shorter blocks than the end-to-end pass,
// because it times twice as many clusters and no bound hangs on its numbers.
var tracePlan = plan{warm: 3, block: 5, minRounds: 2, maxSteps: 120}

// traceFile is where a workload's Chrome trace goes, relative to the
// repository root.
func traceFile(root, workload string) string {
	return filepath.Join(root, "benchmark", "out", workload+".trace.json")
}

// runTraced is the separate traced pass: it reports every per-layer metric
// of one workload and returns the recorder holding the spans. It times, in
// order,
//
//  1. single layers through their public functions (layers.go);
//  2. the same clusters on an unshaped in-process link, until the loss
//     target: step_nolink_ms and steps_to_target;
//  3. for the rest of -seconds, untraced and traced clusters of every method
//     (and overlap-off clusters of two) in interleaved rounds: in-step wire
//     counts, allocation, exposed communication, overlap gain, the spans,
//     and what recording them costs.
func runTraced(w workload, seed int64, seconds float64, p plan, root string) (*result, *recorder, error) {
	begin := time.Now()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ds := w.dataset(seed)
	elems := w.build(rand.New(rand.NewSource(modelSeed))).NumParams()

	layerTensor(w, res)
	var rec *recorder
	for _, phase := range []func() error{
		func() error { return layerNNData(w, ds, res) },
		func() error { return layerCompress(w, ds, res) },
		func() error { return layerComm(w, elems, res) },
		func() error { return layerCheckpoint(w, res) },
		func() error { return layerElastic(w, ds, res) },
		func() error { return layerSim(root, res) },
		func() error { return stepNoLink(w, ds, p, res) },
		func() (err error) {
			rec, err = stepTraced(w, ds, p, res, seconds-time.Since(begin).Seconds())
			return err
		},
	} {
		if err := phase(); errors.Is(err, errStepFailed) {
			return res, nil, nil // booked in res: the run reports it
		} else if err != nil {
			return nil, nil, err
		}
	}
	return res, rec, nil
}

// stepNoLink runs every method's cluster on an unshaped in-process link:
// what the step costs when communication is free, and (the losses do not
// depend on the link) how many steps the loss target takes.
func stepNoLink(w workload, ds *data.Dataset, p plan, res *result) error {
	lanes, err := setUp(w, ds, methods, p.warm, func(string) clusterOpts { return clusterOpts{} })
	if err != nil {
		return err
	}
	defer closeLanes(lanes)
	for _, l := range lanes {
		for len(l.blockMS) == 0 || l.awaitsTarget(w, p.maxSteps) {
			if err := res.runBlock(l, p.block); err != nil {
				return err
			}
		}
		res.set("train.step_nolink_ms."+l.method, lowerQuartile(l.blockMS), "ms")
		if isTarget(l.method) {
			n := stepsToTarget(l.losses, w.target)
			if n == 0 {
				res.fail("%s never reached loss %.2f in %d steps", l.method, w.target, len(l.losses))
			}
			res.set("train.steps_to_target."+l.method, n, "steps")
		}
	}
	return nil
}

// stepTraced steps an untraced and a traced cluster of every method, and an
// overlap-off cluster of S-SGD and ACP-SGD (the two methods whose collectives
// can hide behind backward), on the workload's link in interleaved rounds for
// the given seconds. It reports what only a run inside the step can: wire
// counts, allocation, exposed communication, overlap gain, the spans and
// what recording them costs.
func stepTraced(w workload, ds *data.Dataset, p plan, res *result, seconds float64) (*recorder, error) {
	registerTraced()
	rec := newRecorder()
	counters := map[string]*linkCounters{}
	for _, m := range methods {
		counters[m] = &linkCounters{}
	}
	plain, err := setUp(w, ds, methods, p.warm, func(string) clusterOpts { return clusterOpts{link: w.link} })
	if err != nil {
		return nil, err
	}
	defer closeLanes(plain)
	traced, err := setUp(w, ds, methods, p.warm, func(m string) clusterOpts {
		return clusterOpts{link: w.link, spec: tracedSpec(m), wrap: func(t comm.Transport) comm.Transport {
			return &countingTransport{Transport: t, n: counters[m], rec: rec}
		}}
	})
	if err != nil {
		return nil, err
	}
	defer closeLanes(traced)
	serial, err := setUp(w, ds, []string{"ssgd", "acp"}, p.warm, func(string) clusterOpts {
		return clusterOpts{link: w.link, overlap: train.OverlapOff}
	})
	if err != nil {
		return nil, err
	}
	defer closeLanes(serial)
	// Warm-up went through the counting transports too; start the counts
	// from the first timed step. Spans start here as well.
	for _, n := range counters {
		n.bytes.Store(0)
		n.msgs.Store(0)
		n.recvWaitNS.Store(0)
	}
	for _, l := range traced {
		l.rec = rec
	}
	activeRecorder.Store(rec)
	defer activeRecorder.Store(nil)
	begin := time.Now()
	for rounds := 1; ; rounds++ {
		for i := range methods {
			if err := res.runBlock(plain[i], p.block); err != nil {
				return nil, err
			}
			if err := res.runBlock(traced[i], p.block); err != nil {
				return nil, err
			}
		}
		for _, l := range serial {
			if err := res.runBlock(l, p.block); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(begin).Seconds()
		if rounds >= p.minRounds && elapsed+elapsed/float64(rounds)/2 > seconds {
			break
		}
	}

	overlapOff := map[string]float64{}
	for _, l := range serial {
		overlapOff[l.method] = lowerQuartile(l.blockMS)
	}
	var plainSum, tracedSum float64
	for i, m := range methods {
		step := lowerQuartile(plain[i].blockMS)
		res.notef("train.step_ms.%s %.3f ms on the workload's link (lower quartile of %d blocks of %d)", m, step, len(plain[i].blockMS), p.block)
		res.set("train.exposed_comm_ms."+m, step-res.Metrics["train.step_nolink_ms."+m].Value, "ms")
		if off, ok := overlapOff[m]; ok {
			res.set("train.overlap_gain_ms."+m, off-step, "ms")
		}
		res.set("train.alloc_mb_per_step."+m, float64(plain[i].allocB)/float64(len(plain[i].stepMS))/(1<<20), "MB")
		plainSum += step
		tracedSum += lowerQuartile(traced[i].blockMS)

		// Per rank per step, from the traced cluster's counting transports.
		n := counters[m]
		per := float64(len(traced[i].stepMS)) * workers
		res.set("comm.wire_mb_per_step."+m, float64(n.bytes.Load())/per/(1<<20), "MB")
		res.set("comm.msgs_per_step."+m, float64(n.msgs.Load())/per, "count")
		res.set("comm.recv_wait_ms_per_step."+m, float64(n.recvWaitNS.Load())/per/1e6, "ms")

		for _, l := range []*lane{plain[i], traced[i]} {
			if err := l.cluster.CheckSync(); err != nil {
				res.fail("%s: %v", m, err)
			}
		}
	}
	res.set("trace.overhead_pct", (tracedSum-plainSum)/plainSum*100, "%")

	if err := rec.spanTree(); err != nil {
		res.fail("span tree: %v", err)
	}
	dur, self := rec.selfTimes(0)
	var durSum, selfSum time.Duration
	for i := range dur {
		durSum += dur[i]
		selfSum += self[i]
	}
	res.notef("trace: %d spans over %d steps; rank 0 spent %.1f%% of step time with no lower-layer call open (self time)",
		len(rec.spans), len(dur), 100*float64(selfSum)/float64(durSum))
	return rec, nil
}

// errStepFailed is what runBlock returns after booking a failed step in the
// result: the pass stops, but it still reports.
var errStepFailed = errors.New("a timed step failed")

// runBlock runs one timed block on the lane and books its steps.
func (r *result) runBlock(l *lane, n int) error {
	r.Attempted += n
	if f := l.timedBlock(n); f > 0 {
		r.Failed += f
		r.fail("%s: a timed step failed after %d steps", l.method, len(l.losses))
		return errStepFailed
	}
	return nil
}
