import errno
import math
from array import array
from bisect import bisect_right

import numpy as np
import pytest

from cerwu.engine import BLOCK_SIZE, model_spec_for
from cerwu.entropy import (CONTEXT, COUNT_CAP, STATIC, EntropyModel, interval_bits, log2_list,
                           quantize_counts, replay_intervals)
from cerwu.errors import DecodeError, FactorizationError, ShapeError
from cerwu.fixtures import build_fixture_tensors, make_dataset
from cerwu.grids import FLOAT16_MAX, ROW_MAJOR, round_scale16
from cerwu.linalg import LayerContext, as_matrix, compute_gamma
from cerwu.pipeline import accuracy, collect_hessians
from cerwu.rangecoder import _MASK32, _TOP, FLUSH_BYTES, Payload

LOG2 = log2_list()


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


def reference_accumulate_hessian(activation_batches):
    """Reference ``H = 2 * sum_b X_b X_b^T``: every batch scanned for
    non-finite entries, summed into zeros and symmetrized at the end."""
    batches = [as_matrix(b, f"activation batch {i}") for i, b in enumerate(activation_batches)]
    if not batches:
        raise ShapeError("accumulate_hessian: need at least one batch")
    m = batches[0].shape[0]
    h = np.zeros((m, m), dtype=np.float64)
    for i, x in enumerate(batches):
        if x.shape[0] != m:
            raise ShapeError(f"accumulate_hessian: batch {i} has {x.shape[0]} rows, expected {m}")
        h += 2.0 * (x @ x.T)
    return (h + h.T) / 2.0


def reference_build_context(weights, hessian, lam, damping_delta, gamma=None):
    """Reference ``C'`` and ``W'`` from full reversed copies of ``H'`` and
    of its inverse factor, with the same LAPACK calls as
    :func:`cerwu.linalg.build_context`."""
    import scipy.linalg

    w = as_matrix(weights, "weights")
    h = as_matrix(hessian, "hessian")
    if gamma is None:
        gamma = compute_gamma(w)
    m = h.shape[0]
    h_rev = np.array(h[::-1, ::-1], order="F")
    diag = np.diag_indices(m)
    if damping_delta > 0:
        h_rev[diag] += damping_delta * float(np.mean(np.diag(h)))
    ridge = lam * gamma
    if ridge > 0:
        h_rev[diag] += ridge
    try:
        low = scipy.linalg.cholesky(h_rev, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError("regularized Hessian is numerically singular") from exc
    low_inv, info = scipy.linalg.lapack.dtrtri(low, lower=1, overwrite_c=1)
    if info != 0 or not np.all(np.isfinite(low_inv)):
        raise FactorizationError("inverse of the regularized Hessian's factor overflowed")
    chol_upper = np.ascontiguousarray(low_inv[::-1, ::-1])
    if ridge == 0:
        w_prime = w.copy()
    else:
        w_prime = w - ridge * ((w @ chol_upper.T) @ chol_upper)
    return LayerContext(w_prime, chol_upper, float(gamma), float(lam), float(damping_delta))


def reference_grid(weights, size: int):
    """``(step, levels, zero_index)`` by the parity-split grid formulas the
    one-rule :func:`cerwu.grids.build_grid` replaced; raises ShapeError
    where it does.

    An odd size k takes step ``max|W| / ((k - 1) / 2)`` and levels
    ``i * step`` for i in [-(k-1)/2, (k-1)/2]; an even k takes
    ``max|W| / (k / 2)`` and i in [-k/2, k/2 - 1]. The raw step is rounded
    to binary16 twice, as the old path did.
    """
    if size < 2:
        raise ShapeError(f"grid size must be >= 2, got {size}")
    max_abs = float(np.max(np.abs(as_matrix(weights, "weights"))))
    if size % 2:
        raw = max_abs / ((size - 1) / 2)
    else:
        raw = max_abs / (size / 2)
    if raw > FLOAT16_MAX or (max_abs > 0 and float(np.float16(raw)) == 0.0):
        raise ShapeError(f"grid step {raw:.6g} is not storable in binary16")
    step = round_scale16(round_scale16(raw))
    if size % 2:
        half = (size - 1) // 2
        idx = np.arange(-half, half + 1, dtype=np.float64)
    else:
        idx = np.arange(-(size // 2), size // 2, dtype=np.float64)
    return step, idx * step, size // 2


def reference_nearest_indices(values, step: float, size: int) -> np.ndarray:
    """Nearest-level indices on the parity-split grid of ``size`` levels:
    ties go to the smaller |level|, then to the negative one."""
    v = np.asarray(values, dtype=np.float64)
    imin = -(size - 1) // 2 if size % 2 else -(size // 2)
    imax = imin + size - 1
    t = np.floor(v / step).astype(np.int64)
    lo = np.clip(t, imin, imax)
    hi = np.clip(t + 1, imin, imax)
    lo_lvl = lo * step
    hi_lvl = hi * step
    d_lo = np.abs(v - lo_lvl)
    d_hi = np.abs(v - hi_lvl)
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (np.abs(hi_lvl) < np.abs(lo_lvl)))
    return (np.where(pick_hi, hi, lo) - imin).astype(np.int32)


def sequence_rate_bits(symbols, model: EntropyModel) -> float:
    """Total predicted bits for a symbol sequence; mutates the model.

    Sums the costs of :func:`cerwu.entropy.replay_intervals` left to right,
    in sequence order, so totals match the other replay paths exactly.
    """
    bits = interval_bits(*replay_intervals(symbols, model))
    return float(np.cumsum(bits)[-1]) if bits.size else 0.0


def step_model(model: EntropyModel, symbol: int) -> list:
    """Take the model's one transition on ``symbol`` (static holds) and
    return the table then active."""
    return model.stepper()[1](symbol)


def current_context(model: EntropyModel) -> int:
    """Index of the model's active table; always 0 when both slots share one."""
    return 0 if model.stepper()[0] is model.tables[0] else 1


def set_context(model: EntropyModel, context: int) -> None:
    """Make table ``context`` the model's active one."""
    model._tab = model.tables[context]


class ReferenceModel:
    """The cumulative-list model the count tables replaced, as an oracle.

    Same kinds, contexts and halving rule as :class:`EntropyModel`, kept
    the old way: each context's table is the cumulative list
    ``[0, c0, c0+c1, ..., T]``, and an observation adds one to every entry
    above the symbol; when the total would exceed ``COUNT_CAP`` every
    count is halved, rounding up. ``cum`` is the active table.
    """

    def __init__(self, model: EntropyModel):
        """A fresh reference model of ``model``'s kind and parameters."""
        self.kind, self.k, self.zero_index = model.kind, model.k, model.zero_index
        if model.kind == STATIC:
            first = [0] + np.cumsum(quantize_counts(model.counts)).tolist()
        else:
            first = list(range(model.k + 1))
        self.tabs = (first, list(range(model.k + 1)) if model.kind == CONTEXT else first)
        self.cum = first

    def step(self, symbol: int) -> list:
        """Observe ``symbol`` (static holds); returns the active table."""
        if self.kind == STATIC:
            return self.cum
        cum = self.cum
        if cum[-1] < COUNT_CAP:
            for i in range(symbol + 1, len(cum)):
                cum[i] += 1
        else:
            counts = np.diff(cum)
            counts[symbol] += 1
            cum[1:] = np.cumsum((counts + 1) >> 1).tolist()
        self.cum = self.tabs[symbol != self.zero_index]
        return self.cum


def reference_intervals(symbols, model: EntropyModel):
    """Each symbol's ``(lo, hi, total)`` under a :class:`ReferenceModel` of
    ``model``'s kind and parameters, as three int32 arrays."""
    ref = ReferenceModel(model)
    cum = ref.cum
    lo, hi, total = [], [], []
    for s in np.asarray(symbols).ravel().tolist():
        lo.append(cum[s])
        hi.append(cum[s + 1])
        total.append(cum[-1])
        cum = ref.step(s)
    return tuple(np.array(a, dtype=np.intc) for a in (lo, hi, total))


def oracle_stream(rng, k, n, p_zero):
    """``n`` symbols for a k-level grid: the zero level with probability
    ``p_zero``, else another level within two of it, an end level or any
    level, so that the decoder's walk runs both ways from the zero level."""
    z = k // 2
    near = np.clip(z + rng.choice([-2, -1, 1, 2], size=n), 0, k - 1)
    ends = np.where(rng.random(n) < 0.5, 0, k - 1)
    other = np.choose(rng.integers(0, 3, size=n), [near, ends, rng.integers(0, k, size=n)])
    other[other == z] = z - 1
    return np.where(rng.random(n) < p_zero, z, other)


def halvings_per_table(symbols, totals, kind, k):
    """How often each table the symbols visit was halved, from the totals
    a replay saw: a table's total falls only when it is halved."""
    z = k // 2
    syms = np.asarray(symbols)
    ctx = np.zeros(syms.size, dtype=np.int64)
    if kind == CONTEXT:
        ctx[1:] = syms[:-1] != z
    return [int(np.sum(np.diff(totals[ctx == c]) < 0)) for c in np.unique(ctx)]


# Long enough for each of a context model's two tables to halve twice
# when half of the symbols are the zero level: a table's first halving
# comes after about COUNT_CAP observations, each later one after about
# COUNT_CAP / 2.
HALVING_STREAM = 3 * COUNT_CAP + 8_000


def reference_decode(payload: Payload, model: EntropyModel, k: int) -> np.ndarray:
    """Reference decoder, one loop for every model kind: each symbol is
    found by ``bisect_right`` over the active cumulative counts of a
    :class:`ReferenceModel` of ``model``'s kind and parameters, which steps
    once per symbol, static included."""
    if model.k != k:
        raise ShapeError(f"model k={model.k} does not match k={k}")
    n = payload.symbol_count
    data = payload.data
    if n == 0:
        if len(data) < FLUSH_BYTES:
            raise DecodeError("payload truncated: missing flush bytes")
        return np.zeros(0, dtype=np.int32)
    if len(data) < 4:
        raise DecodeError("payload truncated at symbol 0: shorter than the priming window")

    d = int.from_bytes(data[:4], "big")
    pos = 4
    rng = _MASK32
    size = len(data)
    ref = ReferenceModel(model)
    cum = ref.cum
    # Grown as symbols are decoded, not sized from the header's count: a
    # hostile count then costs memory only as fast as the payload yields
    # symbols.
    out = array("i")
    append = out.append
    for t in range(n):
        total = cum[-1]
        # s is the largest symbol whose lower boundary is <= d:
        # (rng * c) // total <= d  <=>  c <= ((d + 1) * total - 1) // rng.
        thr = ((d + 1) * total - 1) // rng
        s = bisect_right(cum, thr) - 1
        if s >= k:
            raise DecodeError(f"corrupt payload at symbol {t}: no matching interval")
        lo_inc = rng * cum[s] // total
        hi_inc = rng * cum[s + 1] // total
        # Interval search guarantees lo_inc <= d < hi_inc, so the offset
        # stays inside the (renormalized) range without further checks.
        d -= lo_inc
        rng = hi_inc - lo_inc
        while rng < _TOP:
            if pos >= size:
                raise DecodeError(f"payload truncated at symbol {t}")
            d = (d << 8) | data[pos]
            pos += 1
            rng <<= 8
        append(s)
        cum = ref.step(s)
    return np.array(out, dtype=np.int32)


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
    err = (float(row_state[j]) - quantized_value) / float(chol_upper[j, j])
    if j + 1 < row_state.size:
        row_state[j + 1 :] -= err * chol_upper[j, j + 1 :]
    row_state[j] = quantized_value
    return 0.5 * err * err


def reference_walk(weights, grid, config, context):
    """Exhaustive per-entry walk for the adaptive kinds, the engine's reference.

    Every entry scans all k levels on Python floats in tie-break order
    (``(|level|, level)``) and keeps the first minimum with a strict
    ``<``, pricing each level from a full list of the model's current
    rates. The row updates are the engine's: within a block of
    ``BLOCK_SIZE`` columns each entry updates the rest of its block, and a
    finished block reaches the columns right of it as one product per row.
    Returns ``(indices, symbols in scan order, predicted bits, loss delta)``
    with the totals summed left to right in scan order.
    """
    wp = context.w_prime.copy()
    n, m = wp.shape
    chol = context.chol_upper
    cdiag = np.diag(chol)
    half_inv_c2 = 0.5 / (cdiag * cdiag)
    inv_c = 1.0 / cdiag
    levels = grid.levels
    lam = config.lam
    pref = np.lexsort((levels, np.abs(levels)))
    levels_pref = levels[pref]
    gamma_term = (0.5 * lam * context.gamma) * (levels_pref * levels_pref)
    search = list(zip(pref.tolist(), levels_pref.tolist(), gamma_term.tolist()))
    ref = ReferenceModel(model_spec_for(weights, grid, config))
    cum = ref.cum
    if config.scan_order == ROW_MAJOR:
        positions = [(i, j) for i in range(n) for j in range(m)]
    else:
        positions = [(i, j) for j in range(m) for i in range(n)]
    indices = np.empty((n, m), dtype=np.int32)
    err = np.empty((n, m))
    bits = []
    for i, j in positions:
        total = LOG2[cum[-1]]
        rates = [total - LOG2[cum[p + 1] - cum[p]] for p in range(grid.size)]
        w = float(wp[i, j])
        best, choice = math.inf, search[0][0]
        for p, level, gt in search:
            d = level - w
            obj = d * d * float(half_inv_c2[j]) + (rates[p] * lam - gt)
            if obj < best:
                best, choice = obj, p
        e = w - float(levels[choice])
        b0 = j - j % BLOCK_SIZE
        b1 = min(b0 + BLOCK_SIZE, m)
        if j + 1 < b1:
            wp[i, j + 1 : b1] -= (e * float(inv_c[j])) * chol[j, j + 1 : b1]
        indices[i, j] = choice
        err[i, j] = e
        bits.append(rates[choice])
        cum = ref.step(choice)
        if j + 1 == b1 < m:
            wp[i, b1:] -= (err[i, b0:b1] * inv_c[b0:b1]) @ chol[b0:b1, b1:]
    loss = err * err * half_inv_c2
    if config.scan_order != ROW_MAJOR:
        loss = loss.T
        symbols = indices.T.ravel()
    else:
        symbols = indices.ravel()
    return (indices, symbols, float(np.cumsum(bits)[-1]),
            float(np.cumsum(loss.ravel())[-1]))


class DiskFull:
    """A file whose writes fail once ``room`` bytes are written."""

    def __init__(self, fh, room):
        self._fh = fh
        self._room = room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(bytes(data[: self._room]))
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


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
