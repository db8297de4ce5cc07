// Package sim is a discrete-event performance simulator of the paper's
// testbed: a cluster of GPU workers (8 nodes x 4 RTX 2080 Ti in the paper)
// running one training iteration of data-parallel SGD with a given gradient
// aggregation method and system-optimization mode.
//
// It substitutes for a GPU cluster this repo does not run on: communication
// follows the alpha-beta cost model with ring all-reduce / all-gather
// complexities (Table II), computation follows per-layer FLOP shares scaled
// by calibrated per-model FF&BP times, compression costs follow the Table II
// complexity terms plus per-kernel launch overheads, and GPU contention
// between back-propagation and concurrently scheduled compression (the
// §III-C interference that hurts Power-SGD under WFBP) is modeled by
// processor sharing between two in-order compute streams.
package sim

// Network is an alpha-beta interconnect model. Alpha is the per-hop
// (per-ring-step) latency; Bandwidth the per-link bandwidth in bytes/s.
type Network struct {
	Name      string
	Alpha     float64 // seconds per ring hop
	Bandwidth float64 // bytes per second
	// AllGatherEff derates all-gather bandwidth relative to the alpha-beta
	// optimum; measured all-gather implementations fall well short of ring
	// all-reduce efficiency (§III-B finds Sign-SGD's all-gather costs more
	// than S-SGD's all-reduce despite 32x smaller payloads).
	AllGatherEff float64
}

// Predefined networks matching §V-F: commodity 1GbE, data-center 10GbE
// (the main testbed), and 100Gb InfiniBand. Alphas are calibrated so the
// §II-A micro-benchmark numbers hold (a 64KB all-reduce on 32 workers takes
// ~1.2ms on 10GbE).
func Net1GbE() Network {
	return Network{Name: "1GbE", Alpha: 30e-6, Bandwidth: 125e6, AllGatherEff: 0.5}
}

// Net10GbE returns the paper's default 10Gb/s Ethernet.
func Net10GbE() Network {
	return Network{Name: "10GbE", Alpha: 12e-6, Bandwidth: 1.25e9, AllGatherEff: 0.5}
}

// Net100GbIB returns the 100Gb/s InfiniBand configuration. The effective
// per-link bandwidth is far below line rate: with 4 GPUs per node sharing
// one NIC over PCIe 3.0, the achievable ring bandwidth is PCIe/host-bound
// (~32Gb/s), which is what makes S-SGD's communication still visible on
// 100Gb fabrics in Fig. 13.
func Net100GbIB() Network {
	return Network{Name: "100GbIB", Alpha: 2.5e-6, Bandwidth: 4e9, AllGatherEff: 0.5}
}

// NetByName resolves a network by CLI name.
func NetByName(name string) (Network, bool) {
	switch name {
	case "1gbe", "1GbE":
		return Net1GbE(), true
	case "10gbe", "10GbE":
		return Net10GbE(), true
	case "100gbib", "100GbIB", "ib":
		return Net100GbIB(), true
	default:
		return Network{}, false
	}
}

// AllReduceTime returns the ring all-reduce time for `bytes` payload across
// p workers: 2(p-1) hops of alpha plus the bandwidth-optimal 2(p-1)/p
// volume term (Table II).
func (n Network) AllReduceTime(p int, bytes float64) float64 {
	if p <= 1 || bytes < 0 {
		return 0
	}
	hops := float64(2 * (p - 1))
	return hops*n.Alpha + 2*float64(p-1)/float64(p)*bytes/n.Bandwidth
}

// AllGatherTime returns the all-gather time when every worker contributes
// `bytesPerWorker`: (p-1) hops and (p-1)*N volume (Table II), derated by
// AllGatherEff.
func (n Network) AllGatherTime(p int, bytesPerWorker float64) float64 {
	if p <= 1 || bytesPerWorker < 0 {
		return 0
	}
	eff := n.AllGatherEff
	if eff <= 0 {
		eff = 1
	}
	return float64(p-1)*n.Alpha + float64(p-1)*bytesPerWorker/(n.Bandwidth*eff)
}
