package models

import (
	"fmt"
	"math/rand"

	"acpsgd/internal/data"
	"acpsgd/internal/nn"
)

// Sequence-task geometry shared by the sequences dataset and the
// MiniTransformer builder.
const (
	seqVocab = 40
	seqLen   = 12
)

// Trainable pairs a named trainable model with the synthetic task it learns:
// it returns the model factory and an n-example dataset generated from seed.
// "mlp" learns a 32-feature Gaussian mixture, "minivgg" and "miniresnet"
// 3x8x8 synthetic images, and "minitransformer" token sequences.
func Trainable(name string, seed int64, n, classes int) (func(rng *rand.Rand) *nn.Model, *data.Dataset, error) {
	switch name {
	case "mlp":
		return func(rng *rand.Rand) *nn.Model {
			return MLP(rng, 32, 64, 64, classes)
		}, data.GaussianMixture(seed, n, 32, classes, 1.2), nil
	case "minivgg":
		return func(rng *rand.Rand) *nn.Model {
			return MiniVGG(rng, 3, 8, 8, classes)
		}, data.SynthImages(seed, n, classes, 3, 8, 8, 0.6), nil
	case "miniresnet":
		return func(rng *rand.Rand) *nn.Model {
			return MiniResNet(rng, 3, 8, 8, classes)
		}, data.SynthImages(seed, n, classes, 3, 8, 8, 0.6), nil
	case "minitransformer":
		return func(rng *rand.Rand) *nn.Model {
			return MiniTransformer(rng, seqVocab, seqLen, 16, classes)
		}, data.SynthSequences(seed, n, classes, seqVocab, seqLen, 0.35), nil
	default:
		return nil, nil, fmt.Errorf("models: unknown trainable model %q (mlp | minivgg | miniresnet | minitransformer)", name)
	}
}

// MiniVGG builds a CPU-scale stand-in for the paper's VGG-16/CIFAR-10
// convergence model: a plain (non-residual) conv stack with max pooling and
// a dense head, for (c, h, w) images. h and w must be divisible by 4.
func MiniVGG(rng *rand.Rand, c, h, w, classes int) *nn.Model {
	conv1 := nn.NewConv2D("conv1", c, h, w, 8, 3, 3, 1, rng)
	pool1 := nn.NewMaxPool2("pool1", 8, h, w)
	conv2 := nn.NewConv2D("conv2", 8, h/2, w/2, 16, 3, 3, 1, rng)
	pool2 := nn.NewMaxPool2("pool2", 16, h/2, w/2)
	return nn.NewModel(
		conv1,
		nn.NewReLU("relu1"),
		pool1,
		conv2,
		nn.NewReLU("relu2"),
		pool2,
		nn.NewDense("fc1", pool2.OutFeatures(), 64, rng),
		nn.NewReLU("relu3"),
		nn.NewDense("head", 64, classes, rng),
	)
}

// MiniResNet builds a CPU-scale stand-in for ResNet-18/CIFAR-10: a conv stem
// followed by residual conv blocks and a dense head.
func MiniResNet(rng *rand.Rand, c, h, w, classes int) *nn.Model {
	stem := nn.NewConv2D("stem", c, h, w, 8, 3, 3, 1, rng)
	block1 := nn.NewResidual("block1",
		nn.NewConv2D("block1.conv1", 8, h, w, 8, 3, 3, 1, rng),
		nn.NewReLU("block1.relu"),
		nn.NewConv2D("block1.conv2", 8, h, w, 8, 3, 3, 1, rng),
	)
	pool := nn.NewMaxPool2("pool", 8, h, w)
	block2 := nn.NewResidual("block2",
		nn.NewConv2D("block2.conv1", 8, h/2, w/2, 8, 3, 3, 1, rng),
		nn.NewReLU("block2.relu"),
		nn.NewConv2D("block2.conv2", 8, h/2, w/2, 8, 3, 3, 1, rng),
	)
	return nn.NewModel(
		stem,
		nn.NewReLU("relu0"),
		block1,
		nn.NewReLU("relu1"),
		pool,
		block2,
		nn.NewReLU("relu2"),
		nn.NewDense("head", pool.OutFeatures(), classes, rng),
	)
}

// MiniTransformer builds a CPU-scale BERT-family stand-in: token embedding,
// one residual single-head self-attention block, LayerNorm, one residual
// position-wise feed-forward block, LayerNorm, mean pooling and a dense
// head. Its gradient matrices are the transformer shape family (square
// attention projections, rectangular FFN matrices, a tall embedding table).
func MiniTransformer(rng *rand.Rand, vocab, seq, dim, classes int) *nn.Model {
	return nn.NewModel(
		nn.NewEmbedding("emb", vocab, dim, rng),
		nn.NewResidual("attn", nn.NewSelfAttention("attn.self", dim, rng)),
		nn.NewLayerNorm("ln1", dim),
		nn.NewResidual("ffn", nn.NewPositionwise("ffn.pw", dim,
			nn.NewDense("ffn.up", dim, 2*dim, rng),
			nn.NewReLU("ffn.relu"),
			nn.NewDense("ffn.down", 2*dim, dim, rng),
		)),
		nn.NewLayerNorm("ln2", dim),
		nn.NewMeanPool("pool", dim),
		nn.NewDense("head", dim, classes, rng),
	)
}

// MLP builds a plain multi-layer perceptron with ReLU activations between
// the given layer widths (dims[0] inputs, dims[len-1] outputs).
func MLP(rng *rand.Rand, dims ...int) *nn.Model {
	if len(dims) < 2 {
		panic("models: MLP needs at least input and output dims")
	}
	var layers []nn.Layer
	for i := 0; i < len(dims)-1; i++ {
		name := "fc"
		if i == len(dims)-2 {
			name = "head"
		}
		layers = append(layers, nn.NewDense(nameIdx(name, i), dims[i], dims[i+1], rng))
		if i < len(dims)-2 {
			layers = append(layers, nn.NewReLU(nameIdx("relu", i)))
		}
	}
	return nn.NewModel(layers...)
}

func nameIdx(base string, i int) string {
	return base + string(rune('0'+i%10))
}
