package sim

import (
	"testing"

	"acpsgd/internal/models"
)

// TestNoOverlapExposesCommunication: deferring launches until after backward
// (the trainer's Overlap=off schedule) must never make a simulated iteration
// faster, and for communication-bound configurations it must be strictly
// slower with strictly more non-overlapped communication — the term the
// benchmark module measures as train.exposed_comm_ms.<method> on its shaped
// links.
func TestNoOverlapExposesCommunication(t *testing.T) {
	// Power-SGD is deliberately absent: its pipeline runs compression on the
	// side compute stream, which contends with backward at the interference
	// rate (§III-C) — so deferring it can legitimately be FASTER in the
	// model, exactly the paper's argument against comm-hook Power-SGD under
	// WFBP. The monotonicity assertion holds for the methods whose
	// compression is inline on the main stream.
	for _, method := range []Method{MethodSSGD, MethodSign, MethodTopK, MethodACP} {
		t.Run(method.String(), func(t *testing.T) {
			base := Config{
				Model:   models.BERTBase(),
				Method:  method,
				Mode:    ModeWFBPTF,
				Workers: 32,
				Net:     Net10GbE(),
				GPU:     DefaultGPU(),
			}
			overlapped, err := Simulate(base)
			if err != nil {
				t.Fatal(err)
			}
			deferred := base
			deferred.NoOverlap = true
			exposed, err := Simulate(deferred)
			if err != nil {
				t.Fatal(err)
			}
			const eps = 1e-9
			if exposed.TotalSec < overlapped.TotalSec-eps {
				t.Fatalf("no-overlap faster than overlap: %.6f vs %.6f", exposed.TotalSec, overlapped.TotalSec)
			}
			if exposed.CommSec < overlapped.CommSec-eps {
				t.Fatalf("no-overlap exposed less communication: %.6f vs %.6f",
					exposed.CommSec, overlapped.CommSec)
			}
		})
	}

	// S-SGD on 10GbE is communication-bound: the gap must be strict.
	base := Config{
		Model: models.BERTBase(), Method: MethodSSGD, Mode: ModeWFBPTF,
		Workers: 32, Net: Net10GbE(), GPU: DefaultGPU(),
	}
	overlapped, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	base.NoOverlap = true
	exposed, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if exposed.TotalSec <= overlapped.TotalSec {
		t.Fatalf("S-SGD no-overlap should be strictly slower: %.6f vs %.6f",
			exposed.TotalSec, overlapped.TotalSec)
	}
	if exposed.CommSec <= overlapped.CommSec {
		t.Fatalf("S-SGD no-overlap should expose strictly more comm: %.6f vs %.6f",
			exposed.CommSec, overlapped.CommSec)
	}
	// With nothing overlapped, exposed communication plus compute accounts
	// for the whole iteration.
	sum := exposed.FFBPSec + exposed.CompressSec + exposed.CommSec
	if diff := exposed.TotalSec - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("no-overlap breakdown should sum to total: %.9f vs %.9f", sum, exposed.TotalSec)
	}

	// Power-SGD under WFBP+TF pays stream interference; the deferred
	// schedule must still simulate and expose at least as much comm.
	p := Config{
		Model: models.BERTBase(), Method: MethodPower, Mode: ModeWFBPTF,
		Workers: 32, Net: Net10GbE(), GPU: DefaultGPU(),
	}
	pOn, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	p.NoOverlap = true
	pOff, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if pOff.CommSec < pOn.CommSec-1e-9 {
		t.Fatalf("Power-SGD no-overlap exposed less comm: %.6f vs %.6f", pOff.CommSec, pOn.CommSec)
	}
}
