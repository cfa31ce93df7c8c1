import numpy as np
import pytest

from cerwu.engine import CDIAG_FLOOR
from cerwu.fixtures import build_fixture_tensors, make_dataset
from cerwu.pipeline import accuracy, collect_hessians


def random_spd(rng, m, scale=1.0):
    """Well-conditioned random symmetric positive definite matrix."""
    a = rng.normal(size=(m, m))
    return scale * (a @ a.T + m * np.eye(m))


def regularized_hessian(h, damping_delta, lam, gamma):
    """``H' = H + (damping_delta * mean(diag(H)) + lam * gamma) * I``."""
    hp = np.array(h, dtype=np.float64)
    hp[np.diag_indices_from(hp)] += damping_delta * np.mean(np.diag(hp)) + lam * gamma
    return hp


def chol_upper_of(hp):
    """Reference ``C'``: upper Cholesky factor of the explicit inverse of ``H'``."""
    hinv = np.linalg.inv(hp)
    return np.linalg.cholesky((hinv + hinv.T) / 2).T


def entropy_bits(probabilities) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = np.asarray(probabilities, dtype=np.float64)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def obs_row_update(row_state, j, quantized_value, chol_upper) -> float:
    """Apply the single-entry row compensation in place; returns the loss increase.

    ``row_state`` holds the working row (entries < j already quantized,
    entry j still unquantized). A one-entry reference for the engine's
    update, checked against the exact constrained minimizer.
    """
    c_jj = max(float(chol_upper[j, j]), CDIAG_FLOOR)
    err = (float(row_state[j]) - quantized_value) / c_jj
    if j + 1 < row_state.size:
        row_state[j + 1 :] -= err * chol_upper[j, j + 1 :]
    row_state[j] = quantized_value
    return 0.5 * err * err


@pytest.fixture(scope="session")
def mlp_fixture():
    """Trained fixture MLP with containers, Hessians and float accuracy."""
    model_tf, calib_tf, test_tf, mlp = build_fixture_tensors()
    x_train, y_train = make_dataset(3000, seed=1)
    hessians = collect_hessians(model_tf, calib_tf)
    return {
        "model": model_tf,
        "calib": calib_tf,
        "test": test_tf,
        "mlp": mlp,
        "hessians": hessians,
        "train_accuracy": mlp.accuracy(x_train, y_train),
        "float_accuracy": accuracy(model_tf, test_tf),
    }
