"""Uniform quantization grids and the round-to-nearest baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .linalg import as_matrix

ROW_MAJOR = "row-major"
COLUMN_MAJOR = "column-major"
SCAN_ORDERS = (ROW_MAJOR, COLUMN_MAJOR)

# Step used when the source matrix is all zeros (or the 16-bit rounding
# of the step underflows to zero).
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
    """Uniform reconstruction grid containing zero.

    Odd ``size`` k: levels ``i * step`` for i in [-(k-1)/2, (k-1)/2],
    symmetric about zero. Even k: levels for i in [-k/2, k/2 - 1]
    (one extra negative level). ``step`` is always the 16-bit rounded
    scale.
    """

    size: int
    step: float
    levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.size < 2:
            raise ShapeError(f"grid size must be >= 2, got {self.size}")
        if self.step <= 0:
            raise ShapeError("grid step must be positive")
        if len(self.levels) != self.size or np.any(np.diff(self.levels) <= 0):
            raise ShapeError("grid levels must be strictly increasing, one per index")

    @property
    def zero_index(self) -> int:
        """Index of the zero level (same expression for both parities)."""
        return self.size // 2

    @property
    def min_index(self) -> int:
        return -(self.size - 1) // 2 if self.size % 2 else -(self.size // 2)


def grid_from_scale(size: int, step: float) -> Grid:
    """Rebuild a grid from its size and (16-bit rounded) step."""
    step = round_scale16(step)
    if size % 2:
        half = (size - 1) // 2
        idx = np.arange(-half, half + 1, dtype=np.float64)
    else:
        idx = np.arange(-(size // 2), size // 2, dtype=np.float64)
    return Grid(size=size, step=step, levels=idx * step)


def build_grid(weights, size: int) -> Grid:
    """Build the uniform grid spanning the weight range.

    Odd sizes place the extreme levels at +/- max|W|; even sizes use
    step = max|W| / (size/2), so the largest positive level sits one step
    below max|W|. An all-zero matrix falls back to the degenerate step.

    Raises:
        ShapeError: the step exceeds :data:`FLOAT16_MAX`. The step is
            stored as binary16, and clamping it would clip every weight
            beyond the outermost clamped level.
    """
    if size < 2:
        raise ShapeError(f"grid size must be >= 2, got {size}")
    w = as_matrix(weights, "weights")
    max_abs = float(np.max(np.abs(w)))
    if size % 2:
        raw = max_abs / ((size - 1) / 2)
    else:
        raw = max_abs / (size / 2)
    if raw > FLOAT16_MAX:
        raise ShapeError(
            f"weights up to {max_abs:.6g} need a grid step of {raw:.6g} at grid size "
            f"{size}, above the largest storable step {FLOAT16_MAX:g}"
        )
    return grid_from_scale(size, round_scale16(raw))


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


def from_scan_order(a: np.ndarray, rows: int, cols: int, scan_order: str) -> np.ndarray:
    """Inverse of :func:`in_scan_order`: the (rows, cols) view of a flat array."""
    return a.reshape(rows, cols) if scan_order == ROW_MAJOR else a.reshape(cols, rows).T


def layer_from_symbols(
    symbols: np.ndarray, rows: int, cols: int, grid: Grid, scan_order: str
) -> QuantizedLayer:
    """Inverse of :meth:`QuantizedLayer.symbols_in_scan_order`."""
    symbols = np.asarray(symbols, dtype=np.int32)
    if symbols.size != rows * cols:
        raise ShapeError(
            f"expected {rows * cols} symbols, got {symbols.size}"
        )
    idx = np.ascontiguousarray(from_scan_order(symbols, rows, cols, scan_order))
    return QuantizedLayer(rows, cols, idx, grid, scan_order)


def nearest_indices(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Nearest-level indices with deterministic tie-breaking.

    Ties go to the level with the smaller absolute value, then to the
    negative one. Works on arrays of any shape.
    """
    v = np.asarray(values, dtype=np.float64)
    imin = grid.min_index
    imax = imin + grid.size - 1
    t = np.floor(v / grid.step).astype(np.int64)
    lo = np.clip(t, imin, imax)
    hi = np.clip(t + 1, imin, imax)
    lo_lvl = lo * grid.step
    hi_lvl = hi * grid.step
    d_lo = np.abs(v - lo_lvl)
    d_hi = np.abs(v - hi_lvl)
    # On a distance tie, prefer the smaller |level|; |lo| == |hi| cannot
    # occur on a zero-containing uniform grid, but the lower (negative)
    # candidate wins there by construction.
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (np.abs(hi_lvl) < np.abs(lo_lvl)))
    chosen = np.where(pick_hi, hi, lo)
    return (chosen - imin).astype(np.int32)


def round_to_nearest(weights, grid: Grid, scan_order: str = ROW_MAJOR) -> QuantizedLayer:
    """Per-entry nearest-level quantization (the factorized baseline)."""
    w = as_matrix(weights, "weights")
    idx = nearest_indices(w, grid)
    return QuantizedLayer(w.shape[0], w.shape[1], idx, grid, scan_order)
