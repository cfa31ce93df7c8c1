"""Post-training weight compression with entropy-regularized weight updates.

Rate-aware grid-search quantization interleaved with closed-form
loss-compensating weight updates, plus the entropy models, the entropy
coders (static rANS and an adaptive range coder) and the file formats
needed to produce and evaluate compressed models end to end.
"""

from .engine import (
    CompressionConfig,
    LayerResult,
    compress_layer,
    quantize_layer,
)
from .entropy import (
    ADAPTIVE,
    CONTEXT,
    MODEL_KINDS,
    STATIC,
    EntropyModel,
    make_model,
)
from .errors import (
    CerwuError,
    DecodeError,
    FactorizationError,
    InputError,
    ParseError,
    SearchSpaceError,
    ShapeError,
)
from .grids import (
    COLUMN_MAJOR,
    ROW_MAJOR,
    Grid,
    QuantizedLayer,
    build_grid,
    grid_from_scale,
    round_to_nearest,
)
from .linalg import (
    LayerContext,
    accumulate_hessian,
    build_context,
    compute_gamma,
)
from .modelio import (
    CompressedModel,
    QuantizedRecord,
    RawRecord,
    TensorFile,
    load_tensor_file,
    read_compressed,
    write_compressed,
    write_tensor_file,
)
from .oracle import (
    ObjectiveBreakdown,
    brute_force_minimize,
    constrained_quadratic_minimizer,
    evaluate_objective,
)
from .rangecoder import Payload, decode, encode
from .sweep import SweepPoint, pareto_front, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE",
    "CONTEXT",
    "COLUMN_MAJOR",
    "CerwuError",
    "CompressedModel",
    "CompressionConfig",
    "DecodeError",
    "EntropyModel",
    "FactorizationError",
    "Grid",
    "InputError",
    "LayerContext",
    "LayerResult",
    "MODEL_KINDS",
    "ObjectiveBreakdown",
    "ParseError",
    "Payload",
    "QuantizedLayer",
    "QuantizedRecord",
    "ROW_MAJOR",
    "RawRecord",
    "STATIC",
    "SearchSpaceError",
    "ShapeError",
    "SweepPoint",
    "TensorFile",
    "accumulate_hessian",
    "brute_force_minimize",
    "build_context",
    "build_grid",
    "compress_layer",
    "compute_gamma",
    "constrained_quadratic_minimizer",
    "decode",
    "encode",
    "evaluate_objective",
    "grid_from_scale",
    "load_tensor_file",
    "make_model",
    "pareto_front",
    "quantize_layer",
    "read_compressed",
    "round_to_nearest",
    "run_sweep",
    "write_compressed",
    "write_tensor_file",
]
