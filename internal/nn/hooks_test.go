package nn

import (
	"math/rand"
	"strings"
	"testing"

	"acpsgd/internal/tensor"
)

// TestBackwardHookedOrdering pins the WFBP readiness contract the trainer
// builds on: parameter hooks fire in strict "last parameter first" order,
// each layer's hook fires after all of that layer's parameter hooks, and
// layer indices count down to 0 — so li == 0 marks the final gradient of
// the step. Composite layers keep exactly this order while reporting each
// sub-module's parameters as they land.
func TestBackwardHookedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name      string
		m         *Model
		in, out   int
		tokenized bool
	}{
		{name: "plain", in: 4, out: 3, m: NewModel(
			NewDense("a", 4, 6, rng),
			NewReLU("r"),
			NewDense("b", 6, 5, rng),
			NewDense("c", 5, 3, rng),
		)},
		{name: "composite", in: 3, out: 2, tokenized: true, m: NewModel(
			NewEmbedding("emb", 7, 4, rng),
			NewResidual("attn", NewSelfAttention("attn.self", 4, rng)),
			NewLayerNorm("ln", 4),
			NewResidual("ffn", NewPositionwise("ffn.pw", 4,
				NewDense("ffn.up", 4, 8, rng),
				NewReLU("ffn.relu"),
				NewDense("ffn.down", 8, 4, rng),
			)),
			NewMeanPool("pool", 4),
			NewDense("head", 4, 2, rng),
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			x := tensor.New(2, tc.in)
			x.Randomize(rng, 1)
			if tc.tokenized {
				for i := range x.Data {
					x.Data[i] = float64(rng.Intn(7))
				}
			}
			dout := tensor.New(2, tc.out)
			dout.Randomize(rng, 1)
			m.Forward(x)

			type event struct {
				kind  string // "param" or "layer"
				name  string
				layer int
			}
			var events []event
			m.BackwardHooked(dout,
				func(p *Param) { events = append(events, event{kind: "param", name: p.Name}) },
				func(li int, l Layer) { events = append(events, event{kind: "layer", name: l.Name(), layer: li}) },
			)

			var want []event
			layers := m.Layers()
			for i := len(layers) - 1; i >= 0; i-- {
				ps := layers[i].Params()
				for j := len(ps) - 1; j >= 0; j-- {
					want = append(want, event{kind: "param", name: ps[j].Name})
				}
				want = append(want, event{kind: "layer", name: layers[i].Name(), layer: i})
			}
			if len(events) != len(want) {
				t.Fatalf("got %d events, want %d", len(events), len(want))
			}
			for i := range want {
				if events[i] != want[i] {
					t.Fatalf("event %d: got %+v, want %+v", i, events[i], want[i])
				}
			}
			if last := events[len(events)-1]; last.kind != "layer" || last.layer != 0 {
				t.Fatalf("final event must be layer 0 readiness, got %+v", last)
			}
		})
	}
}

// TestCompositeLayersReportParamsAsTheyLand: inside a composite layer a
// parameter's hook fires when its own gradient is final, not when the block
// returns. At each hook the reported gradient already equals its end-of-
// backward value, while the block's parameters still to come (earlier in
// Params order) have not been touched since ZeroGrads.
func TestCompositeLayersReportParamsAsTheyLand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := []Layer{
		NewResidual("attn", NewSelfAttention("attn.self", 4, rng)),
		NewResidual("ffn", NewPositionwise("ffn.pw", 4,
			NewDense("ffn.up", 4, 8, rng),
			NewReLU("ffn.relu"),
			NewDense("ffn.down", 8, 4, rng),
		)),
	}
	for _, block := range blocks {
		m := NewModel(block)
		x := tensor.New(3, 2*4) // batch 3, two positions of width 4
		x.Randomize(rng, 1)
		dout := tensor.New(3, 2*4)
		dout.Randomize(rng, 1)
		m.ZeroGrads()
		m.Forward(x)

		params := m.Params()
		index := make(map[*Param]int, len(params))
		for i, p := range params {
			index[p] = i
		}
		atHook := make(map[*Param][]float64, len(params))
		m.Backward(dout, func(p *Param) {
			atHook[p] = append([]float64(nil), p.Grad.Data...)
			for _, earlier := range params[:index[p]] {
				if denseOf(earlier) == denseOf(p) {
					continue // a Dense reports its bias and weight together
				}
				if earlier.Grad.MaxAbs() != 0 {
					t.Errorf("%s: %s was reported after %s had already been computed", block.Name(), p.Name, earlier.Name)
				}
			}
		})
		for _, p := range params {
			got, ok := atHook[p]
			if !ok {
				t.Fatalf("%s: %s never reported", block.Name(), p.Name)
			}
			if p.Grad.MaxAbs() == 0 {
				t.Fatalf("%s: %s has a zero gradient; the test proves nothing", block.Name(), p.Name)
			}
			for i, v := range p.Grad.Data {
				if got[i] != v {
					t.Fatalf("%s: %s[%d] changed after its hook fired: %v then %v", block.Name(), p.Name, i, got[i], v)
				}
			}
		}
	}
}

// denseOf names the Dense layer a ".weight" or ".bias" parameter belongs to
// (any other parameter is its own sub-module).
func denseOf(p *Param) string {
	return strings.TrimSuffix(strings.TrimSuffix(p.Name, ".weight"), ".bias")
}

// TestBackwardEqualsBackwardHooked: the legacy Backward entry point is the
// hook-less specialization of BackwardHooked; gradients must be identical.
func TestBackwardEqualsBackwardHooked(t *testing.T) {
	build := func() (*Model, *tensor.Matrix, *tensor.Matrix) {
		rng := rand.New(rand.NewSource(11))
		m := NewModel(NewDense("a", 3, 5, rng), NewReLU("r"), NewDense("b", 5, 2, rng))
		x := tensor.New(4, 3)
		x.Randomize(rng, 1)
		dout := tensor.New(4, 2)
		dout.Randomize(rng, 1)
		return m, x, dout
	}
	m1, x1, d1 := build()
	m1.Forward(x1)
	m1.Backward(d1, nil)
	m2, x2, d2 := build()
	m2.Forward(x2)
	m2.BackwardHooked(d2, nil, func(int, Layer) {})
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Grad.Data {
			if p1[i].Grad.Data[j] != p2[i].Grad.Data[j] {
				t.Fatalf("param %s grad[%d] differs", p1[i].Name, j)
			}
		}
	}
}
