package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"acpsgd/internal/data"
	"acpsgd/internal/train"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports: the last line of standard output
// is this object as JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are informational lines (p50/p90, sample counts, failed checks)
	// printed before the JSON line; they are not metrics.
	notes []string
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

// plan sizes one end-to-end pass. The defaults are sized for the 2-core box
// the bounds in BENCHMARK.json were measured on; tests shrink them.
type plan struct {
	setups    int // set-up repetitions; setup_s is their median
	warm      int // untimed warm-up steps per method in each set-up
	block     int // B: timed steps per method per round
	minRounds int // R is at least this, however short -seconds is
	maxSteps  int // per method: stop waiting for a loss target after this many
}

var defaultPlan = plan{setups: 3, warm: 3, block: 10, minRounds: 4, maxSteps: 120}

// lane is one method's live cluster plus everything measured on it.
type lane struct {
	method  string
	cluster *train.Cluster
	losses  []float64 // every step's loss, warm-up first: same seed, same sequence
	stepMS  []float64 // every timed step
	blockMS []float64 // per round: block wall time / B
	allocB  uint64    // bytes allocated inside timed blocks
	rec     *recorder // traced lanes only: a root span around every Step
}

// awaitsTarget reports whether the lane's loss target is still outstanding
// and worth more steps.
func (l *lane) awaitsTarget(w workload, maxSteps int) bool {
	return isTarget(l.method) && stepsToTarget(l.losses, w.target) == 0 && len(l.losses) < maxSteps
}

func closeLanes(lanes []*lane) {
	for _, l := range lanes {
		l.cluster.Close()
	}
}

// setUp is what a user pays before the first useful step: generate the
// dataset, build one cluster per method, and warm each (lazy compressor
// state, buffer pools, TCP connections).
func setUp(w workload, ds *data.Dataset, methods []string, warm int, o func(method string) clusterOpts) ([]*lane, error) {
	var lanes []*lane
	for _, m := range methods {
		c, err := w.newCluster(m, ds, o(m))
		if err != nil {
			closeLanes(lanes)
			return nil, err
		}
		l := &lane{method: m, cluster: c}
		lanes = append(lanes, l)
		for i := 0; i < warm; i++ {
			loss, err := c.Step()
			if err != nil {
				closeLanes(lanes)
				return nil, fmt.Errorf("%s/%s warm-up step %d: %w", w.name, m, i, err)
			}
			l.losses = append(l.losses, loss)
		}
	}
	return lanes, nil
}

// timedBlock runs n timed steps on the lane. It returns how many steps
// failed (error or non-finite loss); a failed cluster is dead, so the block
// stops at the first error.
func (l *lane) timedBlock(n int) (failed int) {
	runtime.GC() // untimed: every block starts from a collected heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	prev := start
	for i := 0; i < n; i++ {
		l.rec.beginStep()
		loss, err := l.cluster.Step()
		l.rec.endStep()
		now := time.Now()
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			return n - i
		}
		l.losses = append(l.losses, loss)
		l.stepMS = append(l.stepMS, millis(now.Sub(prev)))
		prev = now
	}
	// A mean over the block, so GC and allocation cost inside it count.
	l.blockMS = append(l.blockMS, millis(prev.Sub(start))/float64(n))
	runtime.ReadMemStats(&ms)
	l.allocB += ms.TotalAlloc - alloc0
	return 0
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stepsToTarget is the (fractional) number of steps until the exponentially
// smoothed training loss first falls to target, or 0 if it never does.
// Smoothing removes single-batch luck; interpolating the crossing removes
// the whole-step quantization, so nearby inputs give nearby counts. For one
// seed the loss sequence is bit-identical run to run, so this is exact.
func stepsToTarget(losses []float64, target float64) float64 {
	const alpha = 0.1
	ema, prev := 0.0, 0.0
	for i, l := range losses {
		if i == 0 {
			ema = l
		} else {
			prev, ema = ema, (1-alpha)*ema+alpha*l
		}
		if ema <= target {
			if i > 0 && prev > target {
				return float64(i) + (prev-target)/(prev-ema)
			}
			return float64(i + 1)
		}
	}
	return 0
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runEndToEnd is the untraced pass: it measures every end-to-end metric of
// one workload. All five methods' clusters are alive at once and are timed
// in interleaved rounds (round r: for each method, GC then B timed steps),
// so a noisy neighbour hits all methods alike; see README.md.
func runEndToEnd(w workload, seed int64, seconds float64, p plan) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain := func(string) clusterOpts { return clusterOpts{link: w.link} }

	var lanes []*lane
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		// Untimed: drop the previous set-up's clusters for real, so peak_rss_mb
		// is five live clusters and not however much garbage GC left lying.
		closeLanes(lanes)
		runtime.GC()
		t0 := time.Now()
		var err error
		if lanes, err = setUp(w, w.dataset(seed), methods, p.warm, plain); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { closeLanes(lanes) }()

	begin := time.Now()
	rounds := 0
	for more := true; more; {
		more = false
		for _, l := range lanes {
			if err := res.runBlock(l, p.block); err != nil {
				return res, nil // booked in res: the run reports it
			}
			more = more || l.awaitsTarget(w, p.maxSteps)
		}
		rounds++
		// Another round if it (half of it, at most) still fits -seconds.
		elapsed := time.Since(begin).Seconds()
		more = more || rounds < p.minRounds || elapsed+elapsed/float64(rounds)/2 <= seconds
	}

	var allocB uint64
	timedSteps := 0
	for _, l := range lanes {
		step := lowerQuartile(l.blockMS)
		res.set("step_ms."+l.method, step, "ms")
		res.notef("step_ms.%s  p50 %.3f ms  p90 %.3f ms  over %d steps in %d blocks; block means %.2f",
			l.method, percentile(l.stepMS, 50), percentile(l.stepMS, 90), len(l.stepMS), len(l.blockMS), l.blockMS)
		allocB += l.allocB
		timedSteps += len(l.stepMS)

		if isTarget(l.method) {
			n := stepsToTarget(l.losses, w.target)
			if n == 0 {
				res.fail("%s never reached loss %.2f in %d steps", l.method, w.target, len(l.losses))
				n = float64(len(l.losses))
			}
			res.set("time_to_loss_s."+l.method, n*step/1000, "s")
			res.notef("train.steps_to_target.%s %.2f steps (target loss %.2f)", l.method, n, w.target)
		}
		first, last := mean(l.losses[:p.block]), mean(l.losses[len(l.losses)-p.block:])
		if !(last < first) {
			res.fail("%s: loss did not fall (first block %.4f, last block %.4f)", l.method, first, last)
		}
		if err := l.cluster.CheckSync(); err != nil {
			res.fail("%s: %v", l.method, err)
		}
	}
	res.set("setup_s", median(setupS), "s")
	res.set("alloc_mb_per_step", float64(allocB)/float64(timedSteps)/(1<<20), "MB")
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB")
	res.notef("%d rounds of %d steps per method, %.1f s timed", rounds, p.block, time.Since(begin).Seconds())
	return res, nil
}
