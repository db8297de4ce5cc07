package compress

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec names a compression method together with its parameters. It is the
// string-keyed currency of the compressor API: CLI flags, train configs and
// the simulator all select methods by Spec. The textual grammar is
//
//	name[:key=value[,key=value]...]
//
// e.g. "topk:ratio=0.01,selection=exact" or just "acp". Method names and
// their aliases are resolved against the registry (see Register); parameter
// keys are owned by each method's Factory and validated by it.
type Spec struct {
	// Name is the method name. ParseSpec canonicalizes aliases
	// ("power-sgd" → "power"); a Spec built by hand may carry an alias and
	// is canonicalized on Resolve.
	Name string
	// Params holds the explicitly-set parameters. Keys absent here take the
	// factory's defaults; nil means "all defaults".
	Params Params
}

// Params is a method's parameter bag: parsed key=value strings with typed
// accessors. Factories declare the full key set (with default values) via
// MethodInfo.Defaults; unknown keys are rejected at Resolve time.
type Params map[string]string

// ParseSpec parses the textual spec grammar. The method name is resolved
// against the registry, so unknown methods and misspelled names fail here
// with the list of registered methods.
func ParseSpec(s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(s), ":")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return Spec{}, fmt.Errorf("compress: empty method spec")
	}
	canonical, ok := lookupName(name)
	if !ok {
		return Spec{}, fmt.Errorf("compress: unknown method %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	spec := Spec{Name: canonical}
	if !hasParams {
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Spec{}, fmt.Errorf("compress: %s: malformed param %q (want key=value)", canonical, kv)
		}
		if spec.Params == nil {
			spec.Params = Params{}
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("compress: %s: duplicate param %q", canonical, k)
		}
		spec.Params[k] = v
	}
	return spec, nil
}

// MustSpec is ParseSpec for known-good literals; it panics on error.
func MustSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the spec in the ParseSpec grammar with deterministically
// ordered params, so ParseSpec(s.String()) round-trips.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	return b.String()
}

// withDefaults returns a Params view with defs filled in for absent keys.
// Factories call it first in Validate/New so MethodInfo.Defaults is the
// single source of default values (the typed accessors' def arguments never
// fire for declared keys).
func (p Params) withDefaults(defs Params) Params {
	out := make(Params, len(defs)+len(p))
	for k, v := range defs {
		out[k] = v
	}
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Float reads a float param, falling back to def when unset.
func (p Params) Float(key string, def float64) (float64, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("param %s=%q: not a number", key, raw)
	}
	return v, nil
}

// Int reads an integer param, falling back to def when unset.
func (p Params) Int(key string, def int) (int, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("param %s=%q: not an integer", key, raw)
	}
	return v, nil
}

// Bool reads a boolean param (true/false/1/0/on/off), falling back to def
// when unset.
func (p Params) Bool(key string, def bool) (bool, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	switch strings.ToLower(raw) {
	case "true", "1", "on", "yes":
		return true, nil
	case "false", "0", "off", "no":
		return false, nil
	}
	return false, fmt.Errorf("param %s=%q: not a boolean", key, raw)
}

// Enum reads a string param constrained to the allowed values, falling back
// to def when unset.
func (p Params) Enum(key, def string, allowed ...string) (string, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	raw = strings.ToLower(raw)
	for _, a := range allowed {
		if raw == a {
			return raw, nil
		}
	}
	return "", fmt.Errorf("param %s=%q: want one of %s", key, raw, strings.Join(allowed, "|"))
}
