package coop

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestYieldRunsWaitingGoroutineWhileInFlight: on a single P, a goroutine
// made runnable by the compute stream gets to run at the stream's next Yield
// once a collective is in flight, and Begin/End balance the gauge.
func TestYieldRunsWaitingGoroutineWhileInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if n := InFlight(); n != 0 {
		t.Fatalf("gauge is %d before the test", n)
	}
	Yield() // gauge at zero: one atomic load, no scheduler entry

	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		ran.Store(true)
		close(done)
	}()
	Begin()
	Begin()
	if n := InFlight(); n != 2 {
		t.Errorf("gauge is %d after two Begins", n)
	}
	Yield()
	if !ran.Load() {
		t.Error("the waiting goroutine did not run at the yield point")
	}
	End()
	End()
	if n := InFlight(); n != 0 {
		t.Errorf("gauge is %d after balanced Begin/End", n)
	}
	<-done
}
