"""Uniform quantization grids and the round-to-nearest baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .linalg import as_matrix

ROW_MAJOR = "row-major"
COLUMN_MAJOR = "column-major"
SCAN_ORDERS = (ROW_MAJOR, COLUMN_MAJOR)

# Step used when the source matrix is all zeros, and for a stored step
# that reads as zero.
DEGENERATE_STEP = 1e-12

# Largest finite value representable in binary16.
FLOAT16_MAX = 65504.0


def round_scale16(step: float) -> float:
    """Round a grid step to its 16-bit float representation.

    The rounded value is what both the quantizer and the dequantizer use,
    so grids agree bit-exactly across encode and decode. Values that
    underflow to zero (or are nonpositive) map to ``DEGENERATE_STEP``;
    overflow clamps to the largest finite 16-bit value. Both guards are
    re-applied when reading the serialized scale, keeping the mapping
    stable through a file round trip.
    """
    with np.errstate(over="ignore"):
        s = float(np.float16(step))
    if not np.isfinite(s) or s > FLOAT16_MAX:
        return FLOAT16_MAX
    if s <= 0.0:
        return DEGENERATE_STEP
    return s


@dataclass(frozen=True)
class Grid:
    """Uniform reconstruction grid containing zero: the value ``(size, step)``.

    Level ``i`` of ``size`` k is ``(i - k // 2) * step``: zero sits at index
    ``k // 2``, with one more negative level than positive ones for an even
    k. ``step`` is always the 16-bit rounded scale. ``levels`` is derived
    from ``(size, step)`` by that rule, here and nowhere else, so two grids
    compare and hash equal exactly when their size and step do.
    """

    size: int
    step: float
    levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2:
            raise ShapeError(f"grid size must be >= 2, got {self.size}")
        if self.step <= 0:
            raise ShapeError("grid step must be positive")
        idx = np.arange(self.size, dtype=np.float64) - self.size // 2
        object.__setattr__(self, "levels", idx * self.step)

    @property
    def zero_index(self) -> int:
        """Index of the zero level."""
        return self.size // 2


def grid_from_scale(size: int, step: float) -> Grid:
    """The grid of ``size`` levels whose step is ``step`` rounded to binary16."""
    return Grid(size, round_scale16(step))


def build_grid(weights, size: int) -> Grid:
    """Build the uniform grid spanning the weight range.

    The step is ``max|W| / (size // 2)`` before binary16 rounding: the lowest
    level sits at -max|W|, the highest at +max|W| (odd size) or one step
    below (even). An all-zero matrix falls back to the degenerate step.

    Raises:
        ShapeError: the step exceeds :data:`FLOAT16_MAX`, or a nonzero
            matrix's step rounds to zero in binary16. The step is stored
            as binary16: clamping it would clip every weight beyond the
            outermost clamped level, and the degenerate step in place of
            zero would shrink every weight to about 1e-12.
    """
    if size < 2:
        raise ShapeError(f"grid size must be >= 2, got {size}")
    w = as_matrix(weights, "weights")
    max_abs = float(np.max(np.abs(w)))
    raw = max_abs / (size // 2)
    if raw > FLOAT16_MAX:
        raise ShapeError(
            f"weights up to {max_abs:.6g} need a grid step of {raw:.6g} at grid size "
            f"{size}, above the largest storable step {FLOAT16_MAX:g}"
        )
    if max_abs > 0 and float(np.float16(raw)) == 0.0:
        raise ShapeError(
            f"weights up to {max_abs:.6g} need a grid step of {raw:.6g} at grid size "
            f"{size}, which rounds to zero in binary16 (smallest storable step "
            f"{float(np.finfo(np.float16).smallest_subnormal):.6g})"
        )
    return grid_from_scale(size, raw)


@dataclass(frozen=True)
class QuantizedLayer:
    """Grid indices for a matrix, plus everything needed to dequantize."""

    rows: int
    cols: int
    indices: np.ndarray  # (rows, cols) int32, each in [0, grid.size)
    grid: Grid
    scan_order: str = ROW_MAJOR

    def __post_init__(self):
        if self.scan_order not in SCAN_ORDERS:
            raise ShapeError(f"unknown scan order {self.scan_order!r}")
        if self.indices.shape != (self.rows, self.cols):
            raise ShapeError("indices shape does not match rows x cols")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.grid.size
        ):
            raise ShapeError("index out of grid range")

    def dequantize(self) -> np.ndarray:
        """Exact table lookup index -> level."""
        return self.grid.levels[self.indices]

    def symbols_in_scan_order(self) -> np.ndarray:
        return in_scan_order(self.indices, self.scan_order)


def in_scan_order(a: np.ndarray, scan_order: str) -> np.ndarray:
    """Entries of an (rows, cols) array flattened in scan order."""
    return a.ravel() if scan_order == ROW_MAJOR else a.T.ravel()


def layer_from_symbols(
    symbols: np.ndarray, rows: int, cols: int, grid: Grid, scan_order: str
) -> QuantizedLayer:
    """Inverse of :meth:`QuantizedLayer.symbols_in_scan_order`."""
    symbols = np.asarray(symbols, dtype=np.int32)
    if symbols.size != rows * cols:
        raise ShapeError(
            f"expected {rows * cols} symbols, got {symbols.size}"
        )
    idx = symbols.reshape(rows, cols) if scan_order == ROW_MAJOR else symbols.reshape(cols, rows).T
    return QuantizedLayer(rows, cols, np.ascontiguousarray(idx), grid, scan_order)


def nearest_indices(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Nearest-level indices with deterministic tie-breaking.

    The two candidate indices come from flooring ``value / step``, clipped
    to ``[-k, k]`` first so that a value any distance beyond the grid
    (infinities too) gets the end level on its side; their levels are read
    from ``grid.levels``. Ties go to the level with the smaller absolute
    value, then to the negative one. Works on arrays of any shape.

    Raises:
        ShapeError: a value is NaN, which has no nearest level.
    """
    v = np.asarray(values, dtype=np.float64)
    q = np.clip(v / grid.step, -grid.size, grid.size)
    if np.isnan(q).any():
        raise ShapeError("nearest_indices: NaN has no nearest grid level")
    t = np.floor(q).astype(np.int64) + grid.zero_index
    lo = np.clip(t, 0, grid.size - 1)
    hi = np.clip(t + 1, 0, grid.size - 1)
    lo_lvl = grid.levels[lo]
    hi_lvl = grid.levels[hi]
    d_lo = np.abs(v - lo_lvl)
    d_hi = np.abs(v - hi_lvl)
    # On a distance tie, prefer the smaller |level|; |lo| == |hi| cannot
    # occur on a zero-containing uniform grid, but the lower (negative)
    # candidate wins there by construction.
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (np.abs(hi_lvl) < np.abs(lo_lvl)))
    return np.where(pick_hi, hi, lo).astype(np.int32)


def round_to_nearest(weights, grid: Grid, scan_order: str = ROW_MAJOR) -> QuantizedLayer:
    """Per-entry nearest-level quantization (the factorized baseline)."""
    w = as_matrix(weights, "weights")
    idx = nearest_indices(w, grid)
    return QuantizedLayer(w.shape[0], w.shape[1], idx, grid, scan_order)
