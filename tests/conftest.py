import numpy as np
import pytest

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
