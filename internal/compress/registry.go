package compress

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Pattern classifies how a method's payloads travel — the paper's §III-C
// taxonomy, which is what the trainer dispatches on.
type Pattern int

const (
	// PatternAllReduce marks additive float payloads summable in transit by
	// ring all-reduce (S-SGD, ACP-SGD).
	PatternAllReduce Pattern = iota + 1
	// PatternAllGather marks opaque byte payloads that must be all-gathered
	// and merged at the receiver (Sign-SGD, Top-k, DGC).
	PatternAllGather
	// PatternBlocking marks interleaved compute→all-reduce chains that run
	// after back-propagation (Power-SGD).
	PatternBlocking
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternAllReduce:
		return "all-reduce"
	case PatternAllGather:
		return "all-gather"
	case PatternBlocking:
		return "blocking"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Scope says what unit of the model a compressor instance attaches to.
type Scope int

const (
	// ScopeNone means the method keeps no per-tensor state: gradients ship
	// raw (S-SGD).
	ScopeNone Scope = iota
	// ScopeBuffer attaches one compressor to each fused gradient buffer.
	ScopeBuffer
	// ScopeMatrix attaches one compressor to each 2-D weight matrix;
	// vector-shaped parameters ship raw (§IV-C).
	ScopeMatrix
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeNone:
		return "none"
	case ScopeBuffer:
		return "buffer"
	case ScopeMatrix:
		return "matrix"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Tensor describes the gradient tensor a compressor instance is built for.
// Matrix-scoped methods see the 2-D weight shape; buffer-scoped methods see
// the packed buffer as (Len, 1).
type Tensor struct {
	Rows, Cols int
	// ID is a deterministic tensor identity equal across workers (parameter
	// index for matrices, buffer index for fused buffers).
	ID int64
	// WorkerRank is the owning worker's rank, for seeds that must differ
	// across workers (independent stochastic rounding).
	WorkerRank int
}

// Len is the flattened element count.
func (t Tensor) Len() int { return t.Rows * t.Cols }

// SharedSeed derives a seed equal on every worker, for state that must agree
// across ranks without communication (Power-SGD/ACP Q₀, P₀).
func (t Tensor) SharedSeed() int64 { return t.ID }

// MixedSeed derives a per-worker seed from a method salt, for stochastic
// compressors whose rounding must be independent across workers.
func (t Tensor) MixedSeed(salt int64) int64 {
	return (t.ID + salt) ^ int64(t.WorkerRank)<<40
}

// MethodInfo is a registered method's self-description.
type MethodInfo struct {
	// Name is the canonical registry key ("topk").
	Name string
	// Aliases are accepted alternative spellings ("top-k").
	Aliases []string
	// Pattern and Scope tell the trainer how to wire the method.
	Pattern Pattern
	Scope   Scope
	// Defaults is the complete param set with default values — the single
	// source of a method's defaults (factories fold it into spec params
	// before reading them). Spec params outside this key set are rejected.
	// Nil means the method takes none.
	Defaults Params
}

// Factory owns one method's parameter validation and per-tensor state
// construction. Methods implement it in their own file and self-register via
// Register, which is all it takes to add a method (see dgc.go for the
// canonical example).
type Factory interface {
	// Info describes the method; the registry indexes it by Info().Name and
	// Info().Aliases.
	Info() MethodInfo
	// Validate checks the spec's param values (unknown keys are already
	// rejected by Resolve before this runs).
	Validate(spec Spec) error
	// New builds compressor state for one tensor. The returned value must
	// implement the interface Info().Pattern implies: AdditiveCompressor
	// (PatternAllReduce), GatherCompressor (PatternAllGather) or
	// BlockingCompressor (PatternBlocking).
	New(spec Spec, t Tensor) (any, error)
}

// WireBytesF32 is the fp32 wire word size WireRate compression rates are
// quoted against (the in-memory representation is float64, but the paper's
// buffer budgets and compression ratios are fp32 terms). The trainer's
// fusion-budget accounting uses the same constant, so rate and raw-byte
// bookkeeping can never drift apart.
const WireBytesF32 = 4

// WireRater is an optional Factory extension: WireRate reports the expected
// encoded-payload size per raw fp32 wire byte for a tensor of n elements
// (e.g. ~1/32 for Sign-SGD, 3*ratio for (index, value) sparsifiers). The
// trainer uses it to scale the gather-path fusion budget the way §IV-B
// scales the compressed-buffer budget: compressed buffer size = default
// budget × compression rate.
type WireRater interface {
	WireRate(spec Spec, n int) float64
}

var registry struct {
	mu      sync.RWMutex
	entries map[string]Factory // canonical name and aliases → factory
	names   []string           // canonical names
}

// Register adds a factory under its canonical name and aliases. It is meant
// to be called from init in the method's own file; duplicate names panic
// (two methods claiming one spelling is a programming error).
func Register(f Factory) {
	info := f.Info()
	name := strings.ToLower(info.Name)
	if name == "" {
		panic("compress: Register with empty method name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.entries == nil {
		registry.entries = make(map[string]Factory)
	}
	for _, key := range append([]string{name}, info.Aliases...) {
		key = strings.ToLower(key)
		if _, dup := registry.entries[key]; dup {
			panic(fmt.Sprintf("compress: duplicate registration of method %q", key))
		}
		registry.entries[key] = f
	}
	registry.names = append(registry.names, name)
	sort.Strings(registry.names)
}

// lookupName resolves a name or alias to the canonical method name.
func lookupName(name string) (string, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	f, ok := registry.entries[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return f.Info().Name, true
}

// Lookup returns the factory registered under a name or alias.
func Lookup(name string) (Factory, error) {
	registry.mu.RLock()
	f, ok := registry.entries[strings.ToLower(name)]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("compress: unknown method %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return f, nil
}

// Names returns the canonical registered method names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, len(registry.names))
	copy(out, registry.names)
	return out
}

// Methods returns every registered method's description, sorted by name.
func Methods() []MethodInfo {
	names := Names()
	out := make([]MethodInfo, 0, len(names))
	for _, n := range names {
		if f, err := Lookup(n); err == nil {
			out = append(out, f.Info())
		}
	}
	return out
}

// Resolve looks up the spec's factory, canonicalizes the name, rejects
// params the method does not declare, and runs the factory's validation.
// It is the single entry point config layers call before training.
func Resolve(spec Spec) (Factory, Spec, error) {
	f, err := Lookup(spec.Name)
	if err != nil {
		return nil, Spec{}, err
	}
	info := f.Info()
	spec.Name = info.Name
	for k := range spec.Params {
		if _, ok := info.Defaults[k]; !ok {
			return nil, Spec{}, fmt.Errorf("compress: %s: unknown param %q (valid: %s)",
				info.Name, k, paramKeys(info.Defaults))
		}
	}
	if err := f.Validate(spec); err != nil {
		return nil, Spec{}, fmt.Errorf("compress: %s: %w", info.Name, err)
	}
	return f, spec, nil
}

func paramKeys(p Params) string {
	if len(p) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
