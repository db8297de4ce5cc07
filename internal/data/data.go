// Package data provides procedurally generated datasets for the convergence
// experiments. The paper trains on CIFAR-10; offline we substitute synthetic
// classification tasks: class-prototype images
// with multiplicative intensity jitter and additive Gaussian noise, and
// Gaussian-mixture vector tasks. Both are non-trivially learnable, so the
// relative convergence of S-SGD, Power-SGD and ACP-SGD — the quantity Figs.
// 6–7 compare — is preserved.
package data

import (
	"fmt"
	"math/rand"

	"acpsgd/internal/tensor"
)

// Dataset is an in-memory supervised classification dataset.
type Dataset struct {
	X       *tensor.Matrix // [n, features]
	Labels  []int
	Classes int
	// C, H, W describe the image geometry when the features are channel-
	// major images; all zero for plain vector data.
	C, H, W int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return d.X.Rows }

// Features returns the feature dimensionality.
func (d *Dataset) Features() int { return d.X.Cols }

// GaussianMixture generates n examples of `classes` Gaussian clusters in
// `features` dimensions. Cluster centers are drawn at mutually separated
// random positions; within-cluster noise makes the task realistic rather
// than trivially separable.
func GaussianMixture(seed int64, n, features, classes int, noise float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := tensor.New(classes, features)
	centers.Randomize(rng, 2.0)
	x := tensor.New(n, features)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		for j := 0; j < features; j++ {
			x.Set(i, j, centers.At(cls, j)+rng.NormFloat64()*noise)
		}
	}
	shuffle(rng, x, labels)
	return &Dataset{X: x, Labels: labels, Classes: classes}
}

// SynthImages generates n channel-major (c, h, w) images across `classes`
// classes. Every class has a fixed random prototype; an example is
// alpha * prototype + noise with alpha ~ U(0.5, 1.5), so the classifier must
// learn intensity-invariant spatial structure (the CIFAR substitution).
func SynthImages(seed int64, n, classes, c, h, w int, noise float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	feat := c * h * w
	protos := tensor.New(classes, feat)
	protos.Randomize(rng, 1.0)
	x := tensor.New(n, feat)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		alpha := 0.5 + rng.Float64()
		row := x.Data[i*feat : (i+1)*feat]
		prow := protos.Data[cls*feat : (cls+1)*feat]
		for j := range row {
			row[j] = alpha*prow[j] + rng.NormFloat64()*noise
		}
	}
	shuffle(rng, x, labels)
	return &Dataset{X: x, Labels: labels, Classes: classes, C: c, H: h, W: w}
}

// SynthSequences generates n token sequences of length seqLen over a
// vocabulary of size vocab across `classes` classes. Each class owns a set
// of signal tokens; a sequence mixes signal tokens (with probability
// signalProb) and uniform noise tokens, so a sequence model must aggregate
// evidence across positions — the BERT-substitute classification task.
// Token ids are stored as float64 values (nn.Embedding's input convention).
func SynthSequences(seed int64, n, classes, vocab, seqLen int, signalProb float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	if vocab < 2*classes {
		vocab = 2 * classes
	}
	signalPerClass := vocab / (2 * classes)
	if signalPerClass < 1 {
		signalPerClass = 1
	}
	x := tensor.New(n, seqLen)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		row := x.Data[i*seqLen : (i+1)*seqLen]
		for j := range row {
			if rng.Float64() < signalProb {
				row[j] = float64(cls*signalPerClass + rng.Intn(signalPerClass))
			} else {
				row[j] = float64(rng.Intn(vocab))
			}
		}
	}
	shuffle(rng, x, labels)
	return &Dataset{X: x, Labels: labels, Classes: classes}
}

// shuffle applies one Fisher–Yates pass to rows and labels together.
func shuffle(rng *rand.Rand, x *tensor.Matrix, labels []int) {
	feat := x.Cols
	tmp := make([]float64, feat)
	for i := x.Rows - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri := x.Data[i*feat : (i+1)*feat]
		rj := x.Data[j*feat : (j+1)*feat]
		copy(tmp, ri)
		copy(ri, rj)
		copy(rj, tmp)
		labels[i], labels[j] = labels[j], labels[i]
	}
}

// Split partitions d into a training set with the first nTrain examples and
// a test set with the rest. Both halves come from the same generation pass,
// so they share class prototypes/centers (the train/test relationship of a
// real dataset). Rows are copied.
func (d *Dataset) Split(nTrain int) (*Dataset, *Dataset, error) {
	if nTrain <= 0 || nTrain >= d.Len() {
		return nil, nil, fmt.Errorf("data: split size %d out of range (0,%d)", nTrain, d.Len())
	}
	slice := func(lo, hi int) *Dataset {
		n := hi - lo
		x := tensor.New(n, d.Features())
		copy(x.Data, d.X.Data[lo*d.X.Cols:hi*d.X.Cols])
		labels := make([]int, n)
		copy(labels, d.Labels[lo:hi])
		return &Dataset{X: x, Labels: labels, Classes: d.Classes, C: d.C, H: d.H, W: d.W}
	}
	return slice(0, nTrain), slice(nTrain, d.Len()), nil
}

// Shard returns rank's strided shard of d (examples rank, rank+p, ...),
// the data-parallel partitioning of S-SGD. The shard's rows are copied.
func (d *Dataset) Shard(rank, p int) (*Dataset, error) {
	if p <= 0 || rank < 0 || rank >= p {
		return nil, fmt.Errorf("data: invalid shard rank %d of %d", rank, p)
	}
	n := (d.Len() - rank + p - 1) / p
	x := tensor.New(n, d.Features())
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		src := rank + i*p
		copy(x.Data[i*x.Cols:(i+1)*x.Cols], d.X.Data[src*d.X.Cols:(src+1)*d.X.Cols])
		labels[i] = d.Labels[src]
	}
	return &Dataset{X: x, Labels: labels, Classes: d.Classes, C: d.C, H: d.H, W: d.W}, nil
}

// Batcher iterates a dataset in shuffled mini-batches, reshuffling every
// epoch with its own deterministic RNG.
type Batcher struct {
	d     *Dataset
	size  int
	rng   *rand.Rand
	perm  []int
	pos   int
	x     *tensor.Matrix
	label []int
}

// NewBatcher creates a batcher over d with the given batch size.
func NewBatcher(d *Dataset, size int, seed int64) *Batcher {
	if size > d.Len() {
		size = d.Len()
	}
	if size < 1 {
		size = 1
	}
	b := &Batcher{
		d:     d,
		size:  size,
		rng:   rand.New(rand.NewSource(seed)),
		x:     tensor.New(size, d.Features()),
		label: make([]int, size),
	}
	b.reshuffle()
	return b
}

func (b *Batcher) reshuffle() {
	b.perm = b.rng.Perm(b.d.Len())
	b.pos = 0
}

// Next returns the next mini-batch, wrapping (and reshuffling) at epoch
// boundaries. The returned buffers are reused across calls.
func (b *Batcher) Next() (*tensor.Matrix, []int) {
	feat := b.d.Features()
	for i := 0; i < b.size; i++ {
		if b.pos >= len(b.perm) {
			b.reshuffle()
		}
		src := b.perm[b.pos]
		b.pos++
		copy(b.x.Data[i*feat:(i+1)*feat], b.d.X.Data[src*feat:(src+1)*feat])
		b.label[i] = b.d.Labels[src]
	}
	return b.x, b.label
}

// Skip advances the batcher past n batches without materializing them,
// consuming the permutation (and reshuffling at epoch boundaries) exactly as
// n Next calls would. A restored worker uses it to fast-forward a fresh
// batcher to its checkpointed step, so resumed training sees the same sample
// stream an uninterrupted run would.
func (b *Batcher) Skip(n int) {
	for remaining := n * b.size; remaining > 0; {
		if b.pos >= len(b.perm) {
			b.reshuffle()
		}
		take := len(b.perm) - b.pos
		if take > remaining {
			take = remaining
		}
		b.pos += take
		remaining -= take
	}
}

// StepsPerEpoch returns the number of batches per pass over the data.
func (b *Batcher) StepsPerEpoch() int {
	s := b.d.Len() / b.size
	if s < 1 {
		s = 1
	}
	return s
}
