"""Deterministic synthetic fixtures: dataset, trained MLP, tensor files.

Used by the test suite and handy for trying the CLI without real data:

    python -m cerwu.fixtures outdir/

writes ``model.tns``, ``calib.tns`` and ``test.tns`` for a 784-32-10
dense ReLU network trained on a 10-class Gaussian mixture whose inputs
have a correlated, spectrum-decaying covariance (latent factors carry the
class signal, like feature activations of a real network). Only the seed
varies; sizes and training settings are the module constants below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .modelio import TensorFile, write_tensor_file

INPUT_DIM = 784
HIDDEN_DIM = 32
CLASSES = 10


# Class-mean separation: chosen so the float model tests well clear of
# chance while coarse quantization visibly costs accuracy.
MEAN_SCALE = 0.8

# Number of latent factors and their strength relative to the
# per-dimension noise; strong correlations make the input covariance
# genuinely structured, like real activations.
FACTOR_RANK = 48
FACTOR_SCALE = 1.0

# The MLP's SGD with momentum, and the train, calibration and test set sizes.
EPOCHS = 30
BATCH = 128
LEARNING_RATE = 0.05
MOMENTUM = 0.9
TRAIN_SAMPLES = 3000
CALIB_SAMPLES = 1024
TEST_SAMPLES = 10000

# Per-dimension scale decays like natural signals; the residual noise and
# the factor loadings share this envelope.
def _noise_envelope(dim: int) -> np.ndarray:
    return (1.0 + np.arange(dim) / 8.0) ** -0.5


def make_dataset(samples: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian mixture with correlated, spectrum-decaying inputs.

    Class means lie inside the factor span, so the discriminative signal
    rides the dominant covariance directions (as in trained networks),
    with decaying per-dimension residual noise on top.
    """
    rng = np.random.default_rng(seed)
    env = _noise_envelope(INPUT_DIM)
    fixed = np.random.default_rng(1234)
    loadings = FACTOR_SCALE * env * fixed.normal(
        size=(FACTOR_RANK, INPUT_DIM)
    ) / np.sqrt(FACTOR_RANK)
    means = MEAN_SCALE * fixed.normal(size=(CLASSES, FACTOR_RANK)) @ loadings
    labels = rng.integers(0, CLASSES, size=samples)
    factors = rng.normal(size=(samples, FACTOR_RANK))
    features = (
        means[labels] + factors @ loadings + 0.5 * env * rng.normal(size=(samples, INPUT_DIM))
    )
    return features.astype(np.float64), labels.astype(np.int64)


@dataclass
class Mlp:
    w1: np.ndarray  # hidden x input
    b1: np.ndarray
    w2: np.ndarray  # classes x hidden
    b2: np.ndarray

    def hidden(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.w1.T + self.b1, 0.0)

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.hidden(x) @ self.w2.T + self.b2

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(np.argmax(self.logits(x), axis=1) == y))


def train_mlp(x: np.ndarray, y: np.ndarray, seed: int) -> Mlp:
    """SGD with momentum on softmax cross-entropy; deterministic."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    w1 = rng.normal(0, np.sqrt(2.0 / INPUT_DIM), (HIDDEN_DIM, INPUT_DIM))
    b1 = np.zeros(HIDDEN_DIM)
    w2 = rng.normal(0, np.sqrt(2.0 / HIDDEN_DIM), (CLASSES, HIDDEN_DIM))
    b2 = np.zeros(CLASSES)
    vel = [np.zeros_like(p) for p in (w1, b1, w2, b2)]

    for _ in range(EPOCHS):
        order = rng.permutation(n)
        for start in range(0, n, BATCH):
            sel = order[start : start + BATCH]
            xb, yb = x[sel], y[sel]
            h_pre = xb @ w1.T + b1
            h = np.maximum(h_pre, 0.0)
            logits = h @ w2.T + b2
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(sel)), yb] -= 1.0
            p /= len(sel)
            g_w2 = p.T @ h
            g_b2 = p.sum(axis=0)
            dh = (p @ w2) * (h_pre > 0)
            g_w1 = dh.T @ xb
            g_b1 = dh.sum(axis=0)
            for vi, (param, grad) in enumerate(
                ((w1, g_w1), (b1, g_b1), (w2, g_w2), (b2, g_b2))
            ):
                vel[vi] = MOMENTUM * vel[vi] - LEARNING_RATE * grad
                param += vel[vi]

    return Mlp(w1=w1, b1=b1, w2=w2, b2=b2)


def build_fixture_files(out_dir: str, seed: int = 0) -> Tuple[str, str, str]:
    """Train the fixture MLP and write model/calib/test containers.

    Returns the three paths (model, calib, test).
    """
    model_tf, calib_tf, test_tf, _ = build_fixture_tensors(seed)
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.tns")
    calib_path = os.path.join(out_dir, "calib.tns")
    test_path = os.path.join(out_dir, "test.tns")
    write_tensor_file(model_tf, model_path)
    write_tensor_file(calib_tf, calib_path)
    write_tensor_file(test_tf, test_path)
    return model_path, calib_path, test_path


def build_fixture_tensors(seed: int = 0) -> Tuple[TensorFile, TensorFile, TensorFile, Mlp]:
    """In-memory variant of :func:`build_fixture_files`."""
    x_train, y_train = make_dataset(TRAIN_SAMPLES, seed=seed + 1)
    mlp = train_mlp(x_train, y_train, seed=seed + 2)

    x_calib, _ = make_dataset(CALIB_SAMPLES, seed=seed + 3)
    x_test, y_test = make_dataset(TEST_SAMPLES, seed=seed + 4)

    model_tf = TensorFile()
    model_tf.add("fc1.weight", mlp.w1)
    model_tf.add("fc1.bias", mlp.b1)
    model_tf.add("fc2.weight", mlp.w2)
    model_tf.add("fc2.bias", mlp.b2)

    calib_tf = TensorFile()
    calib_tf.add("fc1.weight.activations", x_calib.T)
    calib_tf.add("fc2.weight.activations", mlp.hidden(x_calib).T)

    test_tf = TensorFile()
    test_tf.add("test.features", x_test)
    test_tf.add("test.labels", y_test.astype(np.float64))

    return model_tf, calib_tf, test_tf, mlp


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Write the synthetic MLP fixture files.")
    parser.add_argument("out_dir", help="directory for model.tns / calib.tns / test.tns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    paths = build_fixture_files(args.out_dir, seed=args.seed)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
