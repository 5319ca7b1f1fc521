"""Cyclops's contribution: the learned tracking-and-pointing pipeline.

Sub-modules map one-to-one onto Section 4 of the paper:

* :mod:`gma` -- the parameterized GMA model ``G`` (4.1-A);
* :mod:`kspace` -- board calibration and the K-space fit (4.1-B);
* :mod:`mapping` -- the 12-parameter VR-space mapping fit (4.2);
* :mod:`lsq` -- the Levenberg-Marquardt solver both fits run on;
* :mod:`inverse` -- the iterative reverse model ``G'`` (4.3);
* :mod:`pointing` -- the real-time pointing mechanism ``P`` (4.3);
* :mod:`alignment` -- the exhaustive power-search training oracle;
* :mod:`errors` -- Table 2 accuracy metrics;
* :mod:`system` -- the assembled learned system ``P`` consumes.
"""

from .alignment import AlignmentResult, search
from .errors import ErrorSummary, beam_error_m, summarize
from .gma import GmaModel, board_hits, trace_batch
from .inverse import (
    DEFAULT_VOLTAGE_STEP_V,
    InverseDivergedError,
    InverseResult,
)
from .inverse import solve as solve_inverse
from .kspace import (
    BoardRig,
    BoardSample,
    evaluate_fit,
    fit_gma,
    interior_grid_points,
)
from .mapping import (
    AlignedSample,
    coincidence_residuals,
    fit_mapping,
    mean_coincidence_error_m,
)
from .pointing import (
    PointingCommand,
    PointingDivergedError,
    cold_start_seed,
    point,
)
from .retraining import DriftMonitor, remap
from .system import LearnedSystem

__all__ = [
    "AlignedSample",
    "AlignmentResult",
    "BoardRig",
    "BoardSample",
    "DriftMonitor",
    "DEFAULT_VOLTAGE_STEP_V",
    "ErrorSummary",
    "GmaModel",
    "InverseDivergedError",
    "InverseResult",
    "LearnedSystem",
    "PointingCommand",
    "PointingDivergedError",
    "beam_error_m",
    "board_hits",
    "coincidence_residuals",
    "cold_start_seed",
    "evaluate_fit",
    "fit_gma",
    "fit_mapping",
    "interior_grid_points",
    "mean_coincidence_error_m",
    "point",
    "remap",
    "search",
    "solve_inverse",
    "summarize",
    "trace_batch",
]
