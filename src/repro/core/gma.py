"""The learnable GMA model ``G`` (Section 4.1-A).

``G(v1, v2) -> (p, x)`` maps the two galvo voltages to the output
beam's originating point and direction.  The parameterized expression
itself lives in :func:`repro.galvo.mirror.trace`; this module adds:

* :class:`GmaModel` -- a thin, frame-aware wrapper the pointing
  algorithms use;
* :func:`trace_batch` -- a fully vectorized evaluation of ``G`` over
  many voltage pairs at once, which the least-squares fits call inside
  their residual functions (the scalar path would be ~100x slower);
* :func:`trace_rows` -- its kernel, which also takes per-row geometry
  (:func:`layout` and :func:`placed` build it), so the Section 4.2 fit
  traces 30 differently placed RX models in one call;
* :func:`board_hits` -- the ``f(G(v1, v2))`` composition of Section
  4.1-B: where the beams land on the calibration board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import numpy.typing as npt

from ..galvo import GmaParams, second_mirror_plane, trace
from ..geometry import Plane, Ray, RigidTransform


@dataclass(frozen=True)
class GmaModel:
    """A learned (or hypothesized) GMA model in a particular frame."""

    params: GmaParams

    def beam(self, v1: float, v2: float) -> Ray:
        """Evaluate ``G(v1, v2)``: the predicted output beam."""
        return trace(self.params, v1, v2)

    def second_mirror_plane(self, v1: float, v2: float) -> Plane:
        """The predicted second-mirror plane at these voltages."""
        return second_mirror_plane(self.params, self.params.theta1 * v2)

    def transformed(self, transform: RigidTransform) -> "GmaModel":
        """The same model expressed in another coordinate frame."""
        return GmaModel(self.params.transformed(transform))


#: Rows of a GMA layout (see :func:`layout`) that are points; the
#: other five are unit directions, which rigid placements only rotate.
_POINT_ROWS = (0, 3, 6)

#: Layout rows that are unit directions.
_DIRECTION_ROWS = (1, 2, 4, 5, 7)


def layout(vector: npt.ArrayLike) -> np.ndarray:
    """The (8, 3) rows ``p0, x0, n1, q1, r1, n2, q2, r2`` of a GMA.

    ``vector`` is the 25-parameter encoding of
    :meth:`repro.galvo.GmaParams.to_vector`; ``theta1`` is not part of
    the layout.
    """
    return np.asarray(vector, dtype=float)[:24].reshape(8, 3)


def placed(rows: np.ndarray, rotation: np.ndarray,
           translation: np.ndarray) -> np.ndarray:
    """A layout under one (3, 3) or n (n, 3, 3) rigid placements.

    Every row rotates; only the points translate.  Returns
    (8, 3) for one placement, or (8, n, 3) -- one layout per row, the
    shape :func:`trace_rows` takes -- for n of them.
    """
    moved = rows @ np.swapaxes(rotation, -1, -2)
    moved[..., _POINT_ROWS, :] += translation[..., None, :]
    return np.moveaxis(moved, -2, 0)


def _rotate_about(axis: np.ndarray, angles: np.ndarray,
                  vector: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of vectors by many angles (vectorized).

    ``axis`` and ``vector`` are (3,) (shared by every row) or (n, 3)
    (one per row); ``angles`` is (n,).  Returns (n, 3): each row's
    ``vector`` rotated by its angle about its ``axis``.
    """
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    axis_cross = np.cross(axis, vector)
    axis_dot = np.einsum("...j,...j->...", axis, vector)[..., None]
    return (cos * vector + sin * axis_cross
            + (1.0 - cos) * axis_dot * axis)


def intersect_rows(origins: np.ndarray, directions: np.ndarray,
                   points: np.ndarray, normals: np.ndarray,
                   forward_only: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise beam-plane hits and where they exist.

    ``origins``, ``directions`` and ``normals`` are (n, 3); ``points``
    (one point on each plane) is (3,) or (n, 3).  Returns ``(hits,
    hit)``: the (n, 3) strike points and an (n,) mask with the rules of
    :meth:`repro.geometry.Plane.intersect_ray` -- a beam parallel to
    its plane misses, and with ``forward_only`` so does a hit behind
    the beam's origin.  A beam exactly parallel to its plane yields a
    non-finite strike point.
    """
    denom = np.einsum("ij,ij->i", directions, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("ij,ij->i", points - origins, normals) / denom
        hits = origins + t[:, None] * directions
    hit = np.abs(denom) >= 1e-12
    if forward_only:
        hit &= t >= -1e-12
    return hits, hit


def _reflect_batch(origins: np.ndarray, directions: np.ndarray,
                   normals: np.ndarray, pivot: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Reflect n beams off n mirror planes.

    ``origins``, ``directions`` and ``normals`` are (n, 3); ``pivot``
    is one point shared by every plane (3,) or one per row (n, 3).
    Returns ``(strike_points, reflected_directions)``, each (n, 3).
    Strike points behind the origin are kept, as in the scalar ``G``.
    Rays parallel to their mirror produce non-finite strike points,
    which the fit's residuals turn into large errors (as they should).
    """
    strikes, _ = intersect_rows(origins, directions, pivot, normals)
    denom = np.einsum("ij,ij->i", directions, normals)
    reflected = directions - 2.0 * denom[:, None] * normals
    return strikes, reflected


def trace_rows(rows: np.ndarray, angle1: np.ndarray, angle2: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``G`` per row, on explicit mirror angles.

    ``rows`` is a :func:`layout` with unit directions: (8, 3) when
    every row shares one geometry, or (8, n, 3) for per-row geometry
    (e.g. one RX placement per tracking report, see :func:`placed`).
    ``angle1``/``angle2`` are (n,).  Returns ``(origins, directions,
    pivots2, normals2)``, each (n, 3): the output beams and the
    second-mirror planes (the Lemma 1 target planes).
    """
    p0, x0, n1, q1, r1, n2, q2, r2 = rows
    normals1 = _rotate_about(r1, angle1, n1)
    normals2 = _rotate_about(r2, angle2, n2)
    shape = normals1.shape
    mid_points, mid_dirs = _reflect_batch(np.broadcast_to(p0, shape),
                                          np.broadcast_to(x0, shape),
                                          normals1, q1)
    origins, directions = _reflect_batch(mid_points, mid_dirs,
                                         normals2, q2)
    return origins, directions, np.broadcast_to(q2, shape), normals2


def trace_batch(vector: npt.ArrayLike, v1: npt.ArrayLike,
                v2: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``G`` over many voltage pairs.

    ``vector`` is the 25-parameter encoding of
    :meth:`repro.galvo.GmaParams.to_vector`; ``v1``/``v2`` are (n,)
    voltage arrays.  Returns ``(origins, directions)``, each (n, 3).
    Unlike the scalar path, no validation is applied: the optimizer is
    free to wander through slightly non-unit normals, and the residuals
    stay smooth.
    """
    vec = np.asarray(vector, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    theta1 = vec[24]
    rows = layout(vec).copy()
    for row in _DIRECTION_ROWS:
        rows[row] = rows[row] / np.linalg.norm(rows[row])
    origins, directions, _, _ = trace_rows(rows, theta1 * v1, theta1 * v2)
    return origins, directions


def board_hits(vector: npt.ArrayLike, v1: npt.ArrayLike,
               v2: npt.ArrayLike, board: Plane) -> np.ndarray:
    """Where the modelled beams land on the calibration board.

    Returns (n, 3) world points; beams that never reach the board
    yield non-finite coordinates.
    """
    origins, directions = trace_batch(vector, v1, v2)
    denom = directions @ board.normal
    safe = np.where(np.abs(denom) < 1e-300, np.nan, denom)
    offsets = board.point[None, :] - origins
    t = (offsets @ board.normal) / safe
    return origins + t[:, None] * directions
