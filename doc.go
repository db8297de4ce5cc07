// Package acpsgd reproduces "Evaluation and Optimization of Gradient
// Compression for Distributed Deep Learning" (Zhang et al., ICDCS 2023):
// the ACP-SGD algorithm (alternate compressed Power-SGD with error feedback
// and query reuse), the baselines it is evaluated against (S-SGD, Sign-SGD
// with majority vote, Top-k SGD, Power-SGD), the system optimizations the
// paper studies (ring all-reduce, wait-free back-propagation, tensor
// fusion), and the full experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// Compression methods plug into a self-registering factory API in
// internal/compress: a method is selected by a Spec string in the grammar
// name[:key=value,...] (e.g. "acp:rank=32", "topk:ratio=0.01"), resolved
// against a registry that each method's file populates via compress.Register.
// The trainer dispatches on a factory's declared communication pattern and
// state scope rather than on method identity, so adding a method is a
// one-file drop-in — internal/compress/dgc.go (Deep Gradient Compression)
// is the worked example, and README.md walks through the recipe.
//
// Real training runs through train.Run with a train.Config and testbed
// simulation through sim.Simulate with a sim.Config; models.Trainable pairs
// each trainable model with its synthetic dataset. The examples/ directory
// and the cmd/ tools call these directly.
package acpsgd

// Version identifies this reproduction release.
const Version = "1.1.0"
