package compress

import (
	"strings"
	"testing"
)

// TestSpecRoundTripEveryMethod asserts ParseSpec/String round-trips for
// every registered method: the bare name, and the name with its full
// default param set spelled out explicitly.
func TestSpecRoundTripEveryMethod(t *testing.T) {
	infos := Methods()
	if len(infos) == 0 {
		t.Fatal("no methods registered")
	}
	for _, info := range infos {
		bare, err := ParseSpec(info.Name)
		if err != nil {
			t.Fatalf("%s: bare name does not parse: %v", info.Name, err)
		}
		if bare.String() != info.Name {
			t.Fatalf("%s: bare round-trip produced %q", info.Name, bare.String())
		}

		spec := Spec{Name: info.Name, Params: Params{}}
		for k, v := range info.Defaults {
			spec.Params[k] = v
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("%s: %q does not re-parse: %v", info.Name, spec.String(), err)
		}
		if back.String() != spec.String() {
			t.Fatalf("%s: round-trip %q != %q", info.Name, back.String(), spec.String())
		}
		if _, _, err := Resolve(back); err != nil {
			t.Fatalf("%s: default params do not validate: %v", info.Name, err)
		}
	}
}

// TestSpecLegacySpellings asserts every alias the registry accepts for a
// method (the long-standing CLI spellings) parses onto its canonical name.
func TestSpecLegacySpellings(t *testing.T) {
	cases := map[string]string{
		"ssgd": "ssgd", "sgd": "ssgd", "s-sgd": "ssgd",
		"sign": "sign", "signsgd": "sign", "sign-sgd": "sign",
		"topk": "topk", "top-k": "topk",
		"power": "power", "powersgd": "power", "power-sgd": "power",
		"acp": "acp", "acpsgd": "acp", "acp-sgd": "acp",
	}
	for spelling, want := range cases {
		spec, err := ParseSpec(spelling)
		if err != nil {
			t.Fatalf("legacy spelling %q: %v", spelling, err)
		}
		if spec.Name != want {
			t.Fatalf("legacy spelling %q resolved to %q, want %q", spelling, spec.Name, want)
		}
	}
}

// TestDeletedMethodsUnknown asserts the methods outside the paper's
// evaluation stay out of the registry under every spelling they once had.
func TestDeletedMethodsUnknown(t *testing.T) {
	for _, name := range []string{"qsgd", "terngrad", "tern", "randomk", "random-k"} {
		if _, err := Lookup(name); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Fatalf("Lookup(%q) = %v, want an unknown-method error", name, err)
		}
	}
}

func TestSpecParamParsing(t *testing.T) {
	spec, err := ParseSpec("topk:ratio=0.01,selection=exact,ef=false")
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := spec.Params.Float("ratio", 0); r != 0.01 {
		t.Fatalf("ratio=%v", r)
	}
	if s, _ := spec.Params.Enum("selection", "sampled", "exact", "sampled"); s != "exact" {
		t.Fatalf("selection=%v", s)
	}
	if ef, _ := spec.Params.Bool("ef", true); ef {
		t.Fatal("ef should be false")
	}
	if got := spec.String(); got != "topk:ef=false,ratio=0.01,selection=exact" {
		t.Fatalf("canonical String = %q", got)
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"quantum", "unknown method"},
		{"", "empty method spec"},
		{"topk:ratio", "malformed param"},
		{"topk:ratio=0.1,ratio=0.2", "duplicate param"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("ParseSpec(%q) = %v, want error containing %q", c.in, err, c.wantSub)
		}
	}
	// Unknown methods list the registry so typos are self-diagnosing.
	_, err := ParseSpec("quantum")
	for _, name := range []string{"acp", "dgc", "topk"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-method error should list %q: %v", name, err)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		spec    Spec
		wantSub string
	}{
		{Spec{Name: "topk", Params: Params{"rato": "0.1"}}, `unknown param "rato"`},
		{Spec{Name: "topk", Params: Params{"ratio": "2"}}, "want 0 < ratio <= 1"},
		{Spec{Name: "topk", Params: Params{"ratio": "abc"}}, "not a number"},
		{Spec{Name: "topk", Params: Params{"selection": "psychic"}}, "want one of exact|sampled"},
		{Spec{Name: "acp", Params: Params{"rank": "0"}}, "want rank >= 1"},
		{Spec{Name: "acp", Params: Params{"ef": "maybe"}}, "not a boolean"},
		{Spec{Name: "dgc", Params: Params{"momentum": "1.5"}}, "want 0 <= momentum < 1"},
		{Spec{Name: "nope"}, "unknown method"},
	}
	for _, c := range cases {
		_, _, err := Resolve(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("Resolve(%v) = %v, want error containing %q", c.spec, err, c.wantSub)
		}
	}
	// The unknown-param message names the valid keys.
	_, _, err := Resolve(Spec{Name: "topk", Params: Params{"rato": "0.1"}})
	if !strings.Contains(err.Error(), "ratio") || !strings.Contains(err.Error(), "selection") {
		t.Fatalf("unknown-param error should list valid keys: %v", err)
	}
}

// TestFactoriesBuildDeclaredPattern asserts the registry contract every
// trainer dispatch relies on: each factory's New returns a value
// implementing the interface its declared Pattern implies.
func TestFactoriesBuildDeclaredPattern(t *testing.T) {
	for _, info := range Methods() {
		f, err := Lookup(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		shape := Tensor{Rows: 8, Cols: 8, ID: 3, WorkerRank: 1}
		if info.Scope == ScopeBuffer {
			shape = Tensor{Rows: 64, Cols: 1, ID: 3, WorkerRank: 1}
		}
		st, err := f.New(Spec{Name: info.Name}, shape)
		if err != nil {
			t.Fatalf("%s: New: %v", info.Name, err)
		}
		var ok bool
		switch info.Pattern {
		case PatternAllReduce:
			_, ok = st.(AdditiveCompressor)
		case PatternAllGather:
			_, ok = st.(GatherCompressor)
		case PatternBlocking:
			_, ok = st.(BlockingCompressor)
		}
		if !ok {
			t.Fatalf("%s: pattern %v but New built %T", info.Name, info.Pattern, st)
		}
	}
}
