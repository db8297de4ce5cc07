package compress

import (
	"testing"
)

// FuzzParseSpec drives the spec grammar with arbitrary input: parsing must
// never panic, and any input that parses must round-trip through String —
// parse(s).String() reparses cleanly and re-rendering is a fixed point, so
// specs can be logged, stored and re-read without drift.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"acp",
		"topk:ratio=0.01,selection=exact",
		"dgc:ratio=0.001,momentum=0.9",
		"power-sgd:rank=4,reuse=false",
		"acp:rank=16",
		" sign : ",
		"topk:",
		"topk:ratio=",
		"top-k:ratio=0.05",
		"ssgd:a=b=c",
		"signsgd",
		"topk:ratio=2",
		"acp:RANK=3",
		"topk:ratio=0.1,ratio=0.2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		rendered := spec.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("String() of parsed spec does not reparse: %q -> %q: %v", s, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("String() not a fixed point: %q -> %q -> %q", s, rendered, got)
		}
		if again.Name != spec.Name {
			t.Fatalf("name drifted through round-trip: %q vs %q", spec.Name, again.Name)
		}
		if len(again.Params) != len(spec.Params) {
			t.Fatalf("params drifted through round-trip: %v vs %v", spec.Params, again.Params)
		}
	})
}
