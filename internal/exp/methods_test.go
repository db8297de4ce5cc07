package exp

import (
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/sim"
)

// TestConvMethodsResolveInRegistry pins the contract between the experiment
// tables and the compressor registry: every method the convergence
// experiments train must resolve to a registered factory.
func TestConvMethodsResolveInRegistry(t *testing.T) {
	methods := append([]string{}, convMethods...)
	for _, v := range fig7Variants {
		methods = append(methods, v.spec)
	}
	for _, m := range methods {
		spec, err := compress.ParseSpec(m)
		if err != nil {
			t.Fatalf("conv method %q does not parse: %v", m, err)
		}
		if _, _, err := compress.Resolve(spec); err != nil {
			t.Fatalf("conv method %q does not resolve: %v", m, err)
		}
	}
}

// TestSimMethodsResolveInRegistry asserts that every simulatable method
// name maps both into the simulator's cost models and back into a
// registered compressor factory, so the perf tables and the training
// substrate agree on what each method is.
func TestSimMethodsResolveInRegistry(t *testing.T) {
	for _, name := range sim.Names() {
		if _, _, ok := sim.ByName(name); !ok {
			t.Fatalf("sim.Names lists %q but ByName rejects it", name)
		}
		if _, err := compress.Lookup(name); err != nil {
			t.Fatalf("simulatable method %q is not a registered compressor: %v", name, err)
		}
	}
	// And the sim enums used by the perf tables all have a name.
	enums := map[sim.Method]string{
		sim.MethodSSGD:  "ssgd",
		sim.MethodSign:  "sign",
		sim.MethodTopK:  "topk",
		sim.MethodPower: "power",
		sim.MethodACP:   "acp",
	}
	for enum, name := range enums {
		m, _, ok := sim.ByName(name)
		if !ok || m != enum {
			t.Fatalf("sim enum %v does not round-trip through name %q", enum, name)
		}
	}
}
