"""K-space calibration of a GMA (Section 4.1-B).

The rig: a planar board with grid lines, the GMA fixed 1.5 m in front
of it.  K-space is defined so the board is its x-y plane.  For each
interior grid intersection the experimenter finds the voltage pair that
parks the beam spot on the intersection (reading the spot position by
eye, which is where the measurement noise comes from), producing
4-attribute training samples ``(x, y, v1, v2)``.  Non-linear least
squares then fits the 25 parameters of ``G`` so that the predicted
board hits match the targets.

The fit recovers a *predictively accurate* ``G``, not the literal
construction parameters -- the parameterization has gauge freedoms
(e.g. the input beam origin can slide along its own direction), and
like the paper we only ever evaluate ``G`` by where its beams go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import numpy.typing as npt

from .. import constants
from ..galvo import GalvoHardware, GmaParams
from ..geometry import NoIntersectionError, Vec3
from .gma import GmaModel, board_hits
from .lsq import forward_jacobian, levenberg_marquardt
from .pointing import PointingDivergedError

#: By-eye spot-positioning accuracy on the grid board, one axis (m).
EYE_NOISE_M = 0.7e-3

#: Board imperfection: a foam/wood grid board is not a perfect plane,
#: so the spot's apparent grid position carries a smooth systematic
#: bias of this magnitude (warp height times parallax).
WARP_BIAS_M = 0.9e-3
WARP_PERIOD_M = 0.35

#: The board plane in K-space: the x-y plane (through the origin, unit
#: normal +z).
BOARD_POINT = np.zeros(3)
BOARD_NORMAL = np.array([0.0, 0.0, 1.0])


def _board_hit(origin: Vec3, direction: Vec3,
               length: float) -> Tuple[float, float]:
    """Where a beam meets the z = 0 board, as ``(x, y)``.

    ``length`` is the norm of ``direction``, which is scaled to unit
    length first.  A beam parallel to the board, or hitting it behind
    its origin, raises :class:`NoIntersectionError`.
    """
    ox, oy, oz = origin
    dx, dy, dz = direction
    dz /= length
    if abs(dz) < 1e-12:
        raise NoIntersectionError("ray is parallel to the plane")
    t = -oz / dz
    if t < -1e-12:
        raise NoIntersectionError("intersection is behind the ray origin")
    return ox + t * (dx / length), oy + t * (dy / length)


@dataclass(frozen=True)
class BoardSample:
    """One training sample: a grid target and the voltages that hit it."""

    x: float
    y: float
    v1: float
    v2: float


def interior_grid_points(columns: int = constants.KSPACE_BOARD_COLUMNS,
                         rows: int = constants.KSPACE_BOARD_ROWS,
                         cell_m: float = constants.KSPACE_CELL_SIZE_M,
                         ) -> np.ndarray:
    """The (columns-1) x (rows-1) interior grid intersections.

    The paper uses only the interior points -- 19 x 14 = 266 of them
    for the 20 x 15 board -- "for high accuracy".  Points are centered
    on the board so the rig's origin is the board center.
    """
    xs = (np.arange(1, columns) - columns / 2.0) * cell_m
    ys = (np.arange(1, rows) - rows / 2.0) * cell_m
    grid = np.array([[x, y] for x in xs for y in ys])
    return grid


@dataclass
class BoardRig:
    """The physical K-space calibration setup around one real GMA.

    ``hardware`` holds its (hidden) true parameters *in K-space*: the
    device physically sits ~1.5 m off the board along +z, firing -z.
    """

    hardware: GalvoHardware
    rng: np.random.Generator
    eye_noise_m: float = EYE_NOISE_M
    warp_bias_m: float = WARP_BIAS_M

    def __post_init__(self) -> None:
        # Random but fixed warp phases: the board's particular bend.
        self._warp_phase = tuple(
            self.rng.uniform(0.0, 2.0 * np.pi, size=2).tolist())

    def _warp_bias(self, x: float, y: float) -> Tuple[float, float]:
        """Systematic apparent-position bias at the board point ``(x, y)``.

        Board non-flatness, smooth over the board at roughly the
        panel's warp wavelength; outside the fitted model's expressive
        class, so it is the component of the paper's 1-2 mm stage-1
        error that no amount of samples removes.
        """
        phase_x, phase_y = self._warp_phase
        return (self.warp_bias_m * math.sin(
                    2.0 * math.pi * x / WARP_PERIOD_M + phase_x),
                self.warp_bias_m * math.sin(
                    2.0 * math.pi * y / WARP_PERIOD_M + phase_y))

    def _observed_spot(self) -> Tuple[float, float]:
        """The spot position as *read off the warped grid board*.

        Where the true beam meets the board (:func:`_board_hit`), plus
        the warp bias.
        """
        origin, direction = self.hardware.output_beam()
        dx, dy, dz = direction
        x, y = _board_hit(origin, direction,
                          math.sqrt(dx * dx + dy * dy + dz * dz))
        bias_x, bias_y = self._warp_bias(x, y)
        return x + bias_x, y + bias_y

    def voltages_hitting(self, target_xy: npt.ArrayLike,
                         tolerance_m: float = 60e-6,
                         max_iterations: int = 50) -> Tuple[float, float]:
        """Find voltages parking the *observed* spot on a board point.

        Newton iteration with finite differences against the real
        hardware -- the automated stand-in for the experimenter turning
        the voltage knobs until the spot covers the grid point.  The
        default tolerance sits above the GM's own 10 urad jitter floor
        (~15 um on the board) but far below the by-eye reading noise.
        All readings are the observed spot (:meth:`_observed_spot`), so
        the board's warp bias flows into the samples,
        exactly as it would on the real bench.  Each iteration commands
        the hardware three times (base, then one finite-difference step
        per mirror; the last only once) and takes the Newton step from
        the 2x2 Jacobian by Cramer's rule.

        A non-finite target, or a singular Jacobian, raises
        :class:`PointingDivergedError`.
        """
        target_x, target_y = np.asarray(target_xy, dtype=float).tolist()
        if not (math.isfinite(target_x) and math.isfinite(target_y)):
            raise PointingDivergedError(
                f"the board loop needs a finite target, got "
                f"({target_x}, {target_y})")
        hardware = self.hardware
        limit = hardware.daq.voltage_range_v - 0.05
        v1, v2 = hardware.voltages
        epsilon = 5e-3  # volts, for the finite-difference Jacobian
        for _ in range(max_iterations):
            hardware.apply(v1, v2)
            x, y = self._observed_spot()
            miss_x, miss_y = target_x - x, target_y - y
            if math.hypot(miss_x, miss_y) <= tolerance_m:
                return v1, v2
            hardware.apply(v1 + epsilon, v2)
            x1, y1 = self._observed_spot()
            hardware.apply(v1, v2 + epsilon)
            x2, y2 = self._observed_spot()
            j11, j21 = (x1 - x) / epsilon, (y1 - y) / epsilon
            j12, j22 = (x2 - x) / epsilon, (y2 - y) / epsilon
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                raise PointingDivergedError(
                    f"singular board Jacobian at ({v1}, {v2}) V")
            step1 = (miss_x * j22 - j12 * miss_y) / det
            step2 = (j11 * miss_y - j21 * miss_x) / det
            if not (math.isfinite(step1) and math.isfinite(step2)):
                raise PointingDivergedError(
                    f"non-finite board step ({step1}, {step2}) at "
                    f"({v1}, {v2}) V")
            # Trust region: a jittery Jacobian must not fling the
            # mirrors across (or beyond) their coverage cone.
            step1 = min(max(step1, -1.5), 1.5)
            step2 = min(max(step2, -1.5), 1.5)
            v1 = min(max(v1 + step1, -limit), limit)
            v2 = min(max(v2 + step2, -limit), limit)
        raise PointingDivergedError(
            f"could not steer the beam onto ({target_x}, {target_y}) "
            f"within {max_iterations} iterations")

    def collect_samples(self, grid_points: np.ndarray) -> List[BoardSample]:
        """Gather one (x, y, v1, v2) sample per grid point.

        The recorded voltages park the *observed* (by-eye) spot on the
        target, so the sample carries both the experimenter's random
        positioning noise and the board's systematic warp bias.
        """
        samples = []
        for point in np.asarray(grid_points, dtype=float):
            observed_target = point + self.rng.normal(
                0.0, self.eye_noise_m, size=2)
            v1, v2 = self.voltages_hitting(observed_target)
            samples.append(BoardSample(x=float(point[0]), y=float(point[1]),
                                       v1=v1, v2=v2))
        return samples


#: CAD/manual-measurement confidence used as a weak prior in the fit:
#: how far each parameter class may plausibly sit from the guess.
PRIOR_POINT_SIGMA_M = 5e-3
PRIOR_DIRECTION_SIGMA = 0.03       # ~1.7 degrees on unit vectors
PRIOR_THETA_REL_SIGMA = 0.02
#: Cost (in board-hit meters) of a one-sigma parameter deviation.
PRIOR_WEIGHT_M = 1e-3

_POINT_SLICES = (slice(0, 3), slice(9, 12), slice(18, 21))
_DIRECTION_SLICES = (slice(3, 6), slice(6, 9), slice(12, 15),
                     slice(15, 18), slice(21, 24))


def _prior_sigmas(initial: np.ndarray) -> np.ndarray:
    """Per-parameter prior widths around the initial guess."""
    sigmas = np.empty(25)
    for s in _POINT_SLICES:
        sigmas[s] = PRIOR_POINT_SIGMA_M
    for s in _DIRECTION_SLICES:
        sigmas[s] = PRIOR_DIRECTION_SIGMA
    sigmas[24] = PRIOR_THETA_REL_SIGMA * abs(initial[24])
    return sigmas


def fit_gma(samples: List[BoardSample],
            initial_guess: GmaParams) -> GmaModel:
    """Least-squares fit of the 25 GMA parameters (Section 4.1-B).

    Minimizes ``sum d((x, y), f(G(v1, v2)))^2`` over the samples, where
    ``f`` intersects the modelled beam with the z = 0 board plane.  The
    initial guess plays the role of the paper's CAD drawing plus manual
    placement measurement, and doubles as a weak prior: board hits
    alone cannot pin down the full 3D beam geometry (any family of
    lines through the right board points matches), so without the
    prior the optimizer drifts along gauge directions chasing the
    by-eye sample noise and learns a model that is accurate *on the
    board plane only*.  The prior keeps the fit inside the
    manufacturing envelope while the data do all the fine work.
    """
    if not samples:
        raise ValueError("cannot fit a GMA model without samples")
    data = np.array([[s.x, s.y, s.v1, s.v2] for s in samples], dtype=float)
    if not np.isfinite(data).all():
        raise ValueError("board samples must have finite coordinates "
                         "and voltages")
    targets, v1, v2 = data[:, :2], data[:, 2], data[:, 3]
    initial = initial_guess.to_vector()
    sigmas = _prior_sigmas(initial)

    def residual_rows(vectors: np.ndarray) -> np.ndarray:
        """Board-hit misses, then the prior, per (25,) row of a stack."""
        hits = board_hits(vectors, v1, v2, BOARD_POINT,
                          BOARD_NORMAL)[..., :2]
        res = (hits - targets).reshape(len(vectors), -1)
        # Beams that miss the board entirely are maximally wrong.
        res = np.where(np.isfinite(res), res, 1e3)
        prior = (vectors - initial) / sigmas * PRIOR_WEIGHT_M
        return np.concatenate([res, prior], axis=1)

    solution = levenberg_marquardt(
        lambda vector: residual_rows(vector[None])[0], initial,
        forward_jacobian(residual_rows))
    return GmaModel(GmaParams.from_vector(solution))


def evaluate_fit(model: GmaModel, rig: BoardRig,
                 test_points: np.ndarray) -> np.ndarray:
    """Per-point board-prediction errors of a fitted model (Table 2).

    For each test target, steer the *real* hardware onto it (fresh
    measurement), then ask the model where those voltages land; the
    distance between prediction and target is the stage-1 error.  The
    predicted beam's length is taken with ``np.linalg.norm``, not the
    board loop's ``math.sqrt``: the two differ in the last bit for
    about one vector in ten, and the Table 2 numbers were recorded
    with the former.
    """
    errors = []
    for point in np.asarray(test_points, dtype=float):
        v1, v2 = rig.voltages_hitting(point)
        origin, direction = model.beam(v1, v2)
        predicted = _board_hit(origin, direction,
                               float(np.linalg.norm(direction)))
        errors.append(float(np.linalg.norm(np.array(predicted) - point)))
    return np.array(errors)
