"""The learnable GMA model ``G`` (Section 4.1-A).

``G(v1, v2) -> (p, x)`` maps the two galvo voltages to the output
beam's originating point and direction.  The parameterized expression
itself lives in :func:`repro.galvo.mirror.trace`; this module adds:

* :class:`GmaModel` -- a thin, frame-aware wrapper the pointing
  algorithms use: :meth:`GmaModel.beam` is ``G`` at the linear angles
  ``theta1 * v``, a float ``(origin, direction)`` pair;
* :func:`trace_batch` -- a fully vectorized evaluation of ``G`` over
  many voltage pairs at once, which the least-squares fits call inside
  their residual functions (the scalar path would be ~100x slower);
* :func:`trace_rows` -- its kernel, on x/y/z component arrays: the
  layout rows (:func:`layout` and :func:`placed` build them) broadcast
  against the mirror angles, so the Section 4.2 fit traces a stack of
  candidates times 30 differently placed RX models, and the K-space
  fit its 25 finite-difference models, in one call;
* :func:`board_hits` -- the ``f(G(v1, v2))`` composition of Section
  4.1-B: where the beams land on the calibration board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import numpy.typing as npt

from ..galvo import GmaParams, trace
from ..geometry import Pose, Vec3


@dataclass(frozen=True)
class GmaModel:
    """A learned (or hypothesized) GMA model in a particular frame."""

    params: GmaParams

    def beam(self, v1: float, v2: float) -> Tuple[Vec3, Vec3]:
        """Evaluate ``G(v1, v2)``: the predicted output beam ``(p, x)``."""
        theta1 = self.params.theta1
        return trace(self.params, theta1 * v1, theta1 * v2)

    def transformed(self, transform: Pose) -> "GmaModel":
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


#: A beam or plane as its x, y and z component arrays.
Components = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _xyz(vectors: np.ndarray) -> Components:
    """The x, y and z components of (..., 3) vectors."""
    return vectors[..., 0], vectors[..., 1], vectors[..., 2]


def _dot(a: Components, b: Components) -> np.ndarray:
    """Element-wise dot products, summed as ``(x x' + z z') + y y'``.

    That is the order numpy's ``einsum`` sums three products in, so
    this kernel and an ``einsum`` dot agree bit for bit.
    """
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a: Components, b: Components) -> Components:
    """Element-wise cross products, term for term as ``np.cross``."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _rotate_about(axis: Components, angles: np.ndarray,
                  vector: Components) -> Components:
    """Rodrigues rotation of ``vector`` by ``angles`` about ``axis``.

    All three broadcast against each other, component by component.
    """
    cos = np.cos(angles)
    sin = np.sin(angles)
    cross = _cross(axis, vector)
    along = (1.0 - cos) * _dot(axis, vector)
    return (cos * vector[0] + sin * cross[0] + along * axis[0],
            cos * vector[1] + sin * cross[1] + along * axis[1],
            cos * vector[2] + sin * cross[2] + along * axis[2])


def _intersect(origins: Components, directions: Components,
               points: Components, normals: Components
               ) -> Tuple[Components, np.ndarray, np.ndarray]:
    """Beam-plane strikes ``(hits, denom, t)``: ``hits = o + t d``.

    ``denom`` is ``d . n``; a beam parallel to its plane gives a
    non-finite ``t`` and strike point.
    """
    denom = _dot(directions, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        offsets = (points[0] - origins[0], points[1] - origins[1],
                   points[2] - origins[2])
        t = _dot(offsets, normals) / denom
        hits = (origins[0] + t * directions[0],
                origins[1] + t * directions[1],
                origins[2] + t * directions[2])
    return hits, denom, t


def intersect_rows(origins: np.ndarray, directions: np.ndarray,
                   points: np.ndarray, normals: np.ndarray,
                   forward_only: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise beam-plane hits and where they exist.

    ``origins``, ``directions``, ``points`` (one point on each plane)
    and ``normals`` are (..., 3) arrays that broadcast together.
    Returns ``(hits, hit)``: the (..., 3) strike points and a (...)
    mask of where they exist -- a beam parallel to its plane
    (``|d . n| < 1e-12``) misses, and with ``forward_only`` so does a
    hit behind the beam's origin.  A beam exactly parallel to its plane
    yields a non-finite strike point.
    """
    hits, denom, t = _intersect(_xyz(origins), _xyz(directions),
                                _xyz(points), _xyz(normals))
    hit = np.abs(denom) >= 1e-12
    if forward_only:
        hit &= t >= -1e-12
    return np.stack(hits, axis=-1), hit


def _reflect(origins: Components, directions: Components,
             normals: Components, pivot: Components
             ) -> Tuple[Components, Components]:
    """Reflect beams off mirror planes through ``pivot``.

    Returns ``(strike_points, reflected_directions)``.  Strike points
    behind the origin are kept, as in the scalar ``G``.  Rays parallel
    to their mirror produce non-finite strike points, which the fit's
    residuals turn into large errors (as they should).
    """
    strikes, denom, _ = _intersect(origins, directions, pivot, normals)
    twice = 2.0 * denom
    return strikes, (directions[0] - twice * normals[0],
                     directions[1] - twice * normals[1],
                     directions[2] - twice * normals[2])


def trace_rows(rows: np.ndarray, angle1: np.ndarray, angle2: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``G`` per row, on explicit mirror angles.

    ``rows`` is a :func:`layout` with unit directions, (8, ..., 3):
    (8, 3) when every row shares one geometry, (8, n, 3) for per-row
    geometry (e.g. one RX placement per tracking report, see
    :func:`placed`), or (8, k, 1, 3) for k models over the same
    voltages.  ``angle1``/``angle2`` share one shape, and each layout
    row broadcasts against it: the whole trace runs once, on x/y/z
    component arrays.  Returns ``(origins, directions, pivots2,
    normals2)``, each of the broadcast shape plus a trailing 3: the
    output beams and the second-mirror planes (the Lemma 1 target
    planes).
    """
    p0, x0, n1, q1, r1, n2, q2, r2 = (_xyz(row) for row in rows)
    normals1 = _rotate_about(r1, angle1, n1)
    normals2 = _rotate_about(r2, angle2, n2)
    mid_points, mid_dirs = _reflect(p0, x0, normals1, q1)
    origins, directions = _reflect(mid_points, mid_dirs, normals2, q2)
    shape = origins[0].shape + (3,)
    return (np.stack(origins, axis=-1), np.stack(directions, axis=-1),
            np.broadcast_to(rows[6], shape), np.stack(normals2, axis=-1))


def trace_batch(vector: npt.ArrayLike, v1: npt.ArrayLike,
                v2: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``G`` over many voltage pairs.

    ``vector`` is the 25-parameter encoding of
    :meth:`repro.galvo.GmaParams.to_vector`, or a (k, 25) stack of them
    (a finite-difference Jacobian's perturbed models), traced in one
    :func:`trace_rows` call: the (8, k, 1, 3) layouts broadcast
    against the (k, n) mirror angles.  ``v1``/``v2`` are (n,) voltage
    arrays.  Returns ``(origins, directions)``, each (n, 3), or
    (k, n, 3) for a stack.  Unlike the scalar path, no validation is
    applied: the optimizer is free to wander through slightly non-unit
    normals, and the residuals stay smooth.
    """
    vec = np.asarray(vector, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    stack = vec.reshape(-1, 25)
    rows = stack[:, :24].reshape(-1, 8, 3).copy()
    directions = rows[:, _DIRECTION_ROWS]
    rows[:, _DIRECTION_ROWS] = directions / np.linalg.norm(
        directions, axis=-1, keepdims=True)
    theta1 = stack[:, 24:]
    origins, directions, _, _ = trace_rows(
        np.moveaxis(rows, 1, 0)[:, :, None], theta1 * v1, theta1 * v2)
    shape = vec.shape[:-1] + (v1.size, 3)
    return origins.reshape(shape), directions.reshape(shape)


def board_hits(vector: npt.ArrayLike, v1: npt.ArrayLike,
               v2: npt.ArrayLike, point: np.ndarray,
               normal: np.ndarray) -> np.ndarray:
    """Where the modelled beams land on the calibration board.

    The board is the plane through the (3,) ``point`` with the (3,)
    unit ``normal``.  ``vector`` is one parameter vector or a (k, 25)
    stack, as in :func:`trace_batch`.  Returns (n, 3) or (k, n, 3)
    world points; beams that never reach the board yield non-finite
    coordinates.
    """
    origins, directions = trace_batch(vector, v1, v2)
    denom = directions @ normal
    safe = np.where(np.abs(denom) < 1e-300, np.nan, denom)
    offsets = point - origins
    t = (offsets @ normal) / safe
    return origins + t[..., None] * directions
