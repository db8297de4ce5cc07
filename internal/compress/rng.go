package compress

import "math/rand"

// Top-k's sampled threshold selection, the one randomized encode decision,
// is rebased to a pure function of (tensor seed, step) at the top of every
// encode (see stepSeed). Without rebasing, the RNG stream position is
// cross-step state the checkpoint cannot carry: a replica restored mid-run
// would consume a different stream than the uninterrupted run and silently
// diverge from its peers' bit-identical continuation. Rebasing makes the
// stream replayable from the step number alone, so Stateful compressors need
// no RNG state in their StateVectors.

// splitmix64 is SplitMix64 (Vigna) as a rand.Source64. Unlike the stdlib
// lagged-Fibonacci source, whose Seed refills a 607-word table, its seed is a
// single word write — cheap enough to rebase on every encode call.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newStepRNG returns the per-tensor RNG of compressors whose encode results
// depend on the random stream. Callers rebase it with Seed(stepSeed(...)) at
// every encode; the zero seed here is never consumed.
func newStepRNG() *rand.Rand { return rand.New(&splitmix64{}) }

// stepSeed mixes a tensor's identity with the step number (one SplitMix64
// finalization), so rebased streams differ across steps and tensors but are
// pure functions of both.
func stepSeed(tensorID int64, step int) int64 {
	z := uint64(tensorID) + (uint64(step)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
