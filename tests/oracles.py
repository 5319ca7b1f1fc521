"""Reference implementations the fast paths are checked against.

* :class:`Ray` / :class:`Plane` and the numpy 3-vector helpers
  (:func:`norm`, :func:`distance`, :func:`dot`, :func:`cross`) -- the
  object form of a beam and a plane.  ``repro`` itself carries a beam
  as a float ``(origin, direction)`` pair; ``Ray(*beam)`` lifts one
  into this form;
* :func:`second_mirror_plane`, :func:`world_second_mirror_plane`,
  :func:`apply_ray`, :func:`world_beam`, :func:`lemma_points` -- the
  Lemma 1 target planes, the world-frame beams through
  ``Pose.apply_point``/``apply_direction``, and the four
  Lemma 1 points built from them;
* :data:`BOARD_PLANE`, :func:`beam_board_hit`, :func:`warp_bias`,
  :func:`observed_board_hit` -- the Section 4.1-B board reading on
  :class:`Ray`/:class:`Plane` (the float reading in
  :mod:`repro.core.kspace` must agree with it);
* :func:`reflect_direction` / :func:`reflect_ray` /
  :func:`angle_between` -- the paper's reflection operator ``R``
  (Section 4.1) and the angle between two directions on numpy
  3-vectors, the building blocks of the object-path references below;
* :func:`reference_trace` / :func:`reference_mirror_planes` -- ``G``
  with Rodrigues rotation *matrices*, numpy 3-vectors and
  :func:`reflect_ray` (the float trace in :mod:`repro.galvo.mirror`
  must agree with it);
* :func:`reference_trace_rows` / :func:`reference_trace_batch` /
  :func:`reference_board_hits` -- the batched ``G`` on (n, 3) rows
  through ``np.cross`` and ``einsum``, every model's layout
  ``np.repeat``-ed across the voltage pairs (the component-wise
  kernel in :mod:`repro.core.gma` must agree with them bit for bit);
* :func:`reference_mapping_jacobian` -- the Section 4.2
  forward-difference Jacobian as one single-candidate residual call
  per parameter (the stacked residual of :func:`repro.core.mapping.fit_mapping`
  must agree with it bit for bit);
* :func:`reference_apply` -- ``GalvoHardware.apply`` with one scalar
  jitter draw per mirror (the hardware must leave the same voltages,
  angles and RNG state);
* :func:`scalar_coincidence_residuals` -- the Section 4.2 residual one
  sample at a time, built from ``LearnedSystem`` objects and planes
  (the batched kernel in :mod:`repro.core.mapping` must agree with it);
* :func:`reference_fit_gma` / :func:`reference_fit_mapping` -- the
  Section 4.1-B and 4.2 fits through ``scipy.optimize.least_squares``
  (MINPACK's Levenberg-Marquardt with its own forward differences);
  :func:`gma_fit_residuals` and :func:`mapping_fit_residuals` are the
  residuals both they and :mod:`repro.core.lsq` minimize, so tests can
  price either solution (the fits in :mod:`repro.core.kspace` and
  :mod:`repro.core.mapping` must reach the same cost);
* :func:`reference_voltages_hitting` -- the Section 4.1-B board loop
  on :class:`Ray`/:class:`Plane` readings and ``np.linalg.lstsq``
  Newton steps (the float loop in :mod:`repro.core.kspace` must land
  within 1e-9 V of it with the same hardware commands);
* :func:`reference_solve` -- ``G'`` on ``GmaModel.beam`` rays, a
  :class:`Plane` through ``tau`` and ``np.linalg.lstsq`` (the float
  :func:`repro.core.inverse.solve` must land within one DAQ step of it
  in as many iterations);
* :func:`reference_evaluate` -- the channel on :class:`Ray` objects and
  numpy 3-vectors (the float :meth:`repro.link.FsoChannel.evaluate`
  must agree with it);
* :func:`reference_generate_trace` -- one head trace from the
  per-sample OU recursion (:func:`reference_ou_series`) and the
  per-burst saccade generator (the tensor pass in
  :mod:`repro.motion.batch` must agree with it bit for bit);
* :func:`reference_simulate_trace` -- the Section 5.4 slot-by-slot
  loop over one trace (each row of the slot kernel in
  :mod:`repro.simulate.batch` must agree with it bit for bit); like
  the kernel, it rejects a report period that is not a whole number
  of slots;
* :func:`reference_tolerance` -- the roll-off inverse by bisection on
  ``excess_loss_db`` with a bracket doubled until it holds the root
  (the closed form :func:`repro.optics.tolerance` must agree with it).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro import constants
from repro.core import (
    GmaModel,
    InverseDivergedError,
    LearnedSystem,
    PointingDivergedError,
)
from repro.core.inverse import (
    DEFAULT_VOLTAGE_STEP_V,
    EPSILON_V,
    InverseResult,
)
from repro.core.gma import _DIRECTION_ROWS, board_hits, layout, placed
from repro.core.kspace import (
    BOARD_NORMAL,
    BOARD_POINT,
    PRIOR_WEIGHT_M,
    _prior_sigmas,
)
from repro.core.lsq import forward_jacobian
from repro.core.mapping import MISS_PENALTY_M, _residual_rows, _stack
from repro.determinism import derive
from repro.galvo import CoverageError, GmaParams
from repro.galvo.mirror import _rotate
from repro.geometry import (
    NoIntersectionError,
    as_vec3,
    euler_to_matrix,
    normalize,
    rotation_matrix,
)
from repro.link.channel import MIN_RANGE_M, AlignmentState
from repro.link.design import NOISE_FLOOR_DBM
from repro.motion import VIDEO_360, HeadTrace
from repro.optics import excess_loss_db
from repro.simulate import TimeslotParams


def norm(v):
    """Euclidean length of a 3-vector."""
    return float(np.linalg.norm(as_vec3(v)))


def distance(a, b):
    """Euclidean distance between two points."""
    return float(np.linalg.norm(as_vec3(a) - as_vec3(b)))


def dot(a, b):
    """Dot product as a plain float."""
    return float(np.dot(as_vec3(a), as_vec3(b)))


def cross(a, b):
    """Cross product of two 3-vectors."""
    return np.cross(as_vec3(a), as_vec3(b))


@dataclass(frozen=True)
class Ray:
    """A half-infinite line: ``origin + t * direction`` for ``t >= 0``.

    ``direction`` is normalized on construction, so ``t`` is metric
    distance along the beam.
    """

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "direction", normalize(self.direction))

    def point_at(self, t):
        """Point a distance ``t`` along the ray from its origin."""
        return self.origin + float(t) * self.direction

    def distance_to_point(self, point):
        """Perpendicular distance from ``point`` to the ray's line."""
        p = as_vec3(point)
        offset = p - self.origin
        along = dot(offset, self.direction)
        closest = self.origin + along * self.direction
        return distance(p, closest)

    def closest_point_to(self, point):
        """Point on the ray's line closest to ``point``."""
        p = as_vec3(point)
        along = dot(p - self.origin, self.direction)
        return self.point_at(along)


@dataclass(frozen=True)
class Plane:
    """A plane through ``point`` with unit ``normal``."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec3(self.point))
        object.__setattr__(self, "normal", normalize(self.normal))

    def signed_distance(self, point):
        """Signed distance of ``point`` from the plane (+ on normal side)."""
        return dot(as_vec3(point) - self.point, self.normal)

    def intersect_ray(self, ray, forward_only=True):
        """Intersection point of ``ray`` with the plane.

        Raises :class:`NoIntersectionError` when the ray is parallel to
        the plane, or (with ``forward_only``) when the intersection lies
        behind the ray's origin -- a beam cannot hit a mirror backwards.
        """
        denom = dot(ray.direction, self.normal)
        if abs(denom) < 1e-12:
            raise NoIntersectionError("ray is parallel to the plane")
        t = -self.signed_distance(ray.origin) / denom
        if forward_only and t < -1e-12:
            raise NoIntersectionError("intersection is behind the ray origin")
        return ray.point_at(t)

    def intersection_distance(self, ray):
        """Distance along ``ray`` to its intersection with the plane."""
        denom = dot(ray.direction, self.normal)
        if abs(denom) < 1e-12:
            raise NoIntersectionError("ray is parallel to the plane")
        return -self.signed_distance(ray.origin) / denom


def second_mirror_plane(params, angle2_rad):
    """The second mirror's plane alone (the Lemma 1 target plane), with
    the float Rodrigues rotation ``G`` itself uses."""
    floats = params._floats
    return Plane(np.array(floats[6]),
                 np.array(_rotate(floats[7], angle2_rad, floats[5])))


def apply_ray(transform, ray):
    """A :class:`Ray` moved by a ``Pose``: the origin through
    ``apply_point``, the direction through ``apply_direction``."""
    return Ray(transform.apply_point(ray.origin),
               transform.apply_direction(ray.direction))


def _kspace_to_world(assembly, body_pose):
    """A TX assembly's fixed placement, or an RX one's at ``body_pose``."""
    if body_pose is None:
        return assembly.kspace_to_world
    return assembly.kspace_to_world(body_pose)


def world_beam(assembly, body_pose=None):
    """An assembly's current beam in the world, as a :class:`Ray`
    (``body_pose`` for an RX assembly, none for a TX one)."""
    return apply_ray(_kspace_to_world(assembly, body_pose),
                     Ray(*assembly.hardware.output_beam()))


def world_second_mirror_plane(assembly, body_pose=None):
    """An assembly's current second-mirror plane, in the world."""
    hardware = assembly.hardware
    plane = second_mirror_plane(hardware.params, hardware._angle2)
    transform = _kspace_to_world(assembly, body_pose)
    return Plane(transform.apply_point(plane.point),
                 transform.apply_direction(plane.normal))


@dataclass(frozen=True)
class LemmaPoints:
    """The four Lemma 1 points: originating and target, both ends."""

    p_t: np.ndarray
    tau_t: np.ndarray
    p_r: np.ndarray
    tau_r: np.ndarray

    @property
    def error(self):
        """``d(p_t, tau_r) + d(p_r, tau_t)`` -- the Section 4.2 error."""
        return (float(np.linalg.norm(self.p_t - self.tau_r))
                + float(np.linalg.norm(self.p_r - self.tau_t)))


def lemma_points(channel, body_pose):
    """Lemma 1's two originating/target point pairs (world frame).

    ``tau_t`` is where the TX beam strikes the RX GM's second-mirror
    plane; ``tau_r`` is where the imaginary RX beam strikes the TX
    GM's second-mirror plane.  Raises :class:`NoIntersectionError` when
    either beam misses the other terminal's mirror plane entirely.
    """
    tx_beam = world_beam(channel.tx)
    rx_beam = world_beam(channel.rx, body_pose)
    tau_t = world_second_mirror_plane(channel.rx, body_pose).intersect_ray(
        tx_beam)
    tau_r = world_second_mirror_plane(channel.tx).intersect_ray(
        rx_beam, forward_only=False)
    return LemmaPoints(p_t=tx_beam.origin, tau_t=tau_t,
                       p_r=rx_beam.origin, tau_r=tau_r)


#: The K-space calibration board: the x-y plane, normal +z.
BOARD_PLANE = Plane(BOARD_POINT, BOARD_NORMAL)


def beam_board_hit(rig):
    """Where the rig's true beam currently lands on the board (exact)."""
    return BOARD_PLANE.intersect_ray(Ray(*rig.hardware.output_beam()))


def warp_bias(rig, point_xy):
    """The rig's apparent-position bias at a board point, as an array."""
    x, y = np.asarray(point_xy, dtype=float).tolist()
    return np.array(rig._warp_bias(x, y))


def observed_board_hit(rig):
    """The spot position as *read off the rig's warped grid board*."""
    hit = beam_board_hit(rig)[:2]
    return hit + warp_bias(rig, hit)


def reflect_direction(direction, normal):
    """Reflect a direction vector about a mirror normal.

    ``d' = d - 2 (d . n) n`` -- the sign of ``normal`` does not matter.
    """
    d = normalize(direction)
    n = normalize(normal)
    return d - 2.0 * dot(d, n) * n


def reflect_ray(ray, mirror, forward_only=True):
    """Reflect ``ray`` off the :class:`Plane` ``mirror``.

    The returned ray originates at the strike point.  Raises
    :class:`NoIntersectionError` if the beam never reaches the mirror
    plane; ``forward_only=False`` permits strike points behind the ray
    origin, which fitted GMA models can legally produce.
    """
    strike = mirror.intersect_ray(ray, forward_only=forward_only)
    return Ray(strike, reflect_direction(ray.direction, mirror.normal))


def angle_between(a, b):
    """Angle in radians between two directions, in ``[0, pi]``."""
    cosine = float(np.clip(np.dot(normalize(a), normalize(b)), -1.0, 1.0))
    return float(np.arccos(cosine))

def reference_mirror_planes(params, angle1_rad, angle2_rad):
    """Both mirror planes, normals rotated by Rodrigues matrices."""
    n1 = rotation_matrix(params.r1, angle1_rad) @ params.n1
    n2 = rotation_matrix(params.r2, angle2_rad) @ params.n2
    return Plane(params.q1, n1), Plane(params.q2, n2)


def reference_trace(params, v1, v2, angle1_rad=None, angle2_rad=None):
    """``G(v1, v2)`` as a chain of two :func:`reflect_ray` calls."""
    if angle1_rad is None:
        angle1_rad = params.theta1 * v1
    if angle2_rad is None:
        angle2_rad = params.theta1 * v2
    first, second = reference_mirror_planes(params, angle1_rad, angle2_rad)
    beam = Ray(params.p0, params.x0)
    mid = reflect_ray(beam, first, forward_only=False)
    return reflect_ray(mid, second, forward_only=False)


def _reference_rotate_about(axis, angles, vector):
    """Rodrigues rotation of (3,) or (n, 3) vectors by (n,) angles."""
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    axis_cross = np.cross(axis, vector)
    axis_dot = np.einsum("...j,...j->...", axis, vector)[..., None]
    return (cos * vector + sin * axis_cross
            + (1.0 - cos) * axis_dot * axis)


def reference_intersect_rows(origins, directions, points, normals,
                             forward_only=False):
    """Beam-plane hits of (n, 3) rows through ``einsum`` dots."""
    denom = np.einsum("ij,ij->i", directions, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("ij,ij->i", points - origins, normals) / denom
        hits = origins + t[:, None] * directions
    hit = np.abs(denom) >= 1e-12
    if forward_only:
        hit &= t >= -1e-12
    return hits, hit


def _reference_reflect(origins, directions, normals, pivot):
    strikes, _ = reference_intersect_rows(origins, directions, pivot,
                                          normals)
    denom = np.einsum("ij,ij->i", directions, normals)
    return strikes, directions - 2.0 * denom[:, None] * normals


def reference_trace_rows(rows, angle1, angle2):
    """``G`` on an (8, 3) shared or (8, n, 3) per-row layout and (n,)
    angles, each output (n, 3)."""
    p0, x0, n1, q1, r1, n2, q2, r2 = rows
    normals1 = _reference_rotate_about(r1, angle1, n1)
    normals2 = _reference_rotate_about(r2, angle2, n2)
    shape = normals1.shape
    mid_points, mid_dirs = _reference_reflect(
        np.broadcast_to(p0, shape), np.broadcast_to(x0, shape), normals1,
        q1)
    origins, directions = _reference_reflect(mid_points, mid_dirs,
                                             normals2, q2)
    return origins, directions, np.broadcast_to(q2, shape), normals2


def reference_trace_batch(vector, v1, v2):
    """``trace_batch`` with every layout repeated across the voltages."""
    vec = np.asarray(vector, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    stack = vec.reshape(-1, 25)
    rows = stack[:, :24].reshape(-1, 8, 3).copy()
    directions = rows[:, _DIRECTION_ROWS]
    rows[:, _DIRECTION_ROWS] = directions / np.linalg.norm(
        directions, axis=-1, keepdims=True)
    per_row = np.repeat(np.moveaxis(rows, 1, 0), v1.size, axis=1)
    theta1 = stack[:, 24:]
    origins, directions, _, _ = reference_trace_rows(
        per_row, (theta1 * v1).ravel(), (theta1 * v2).ravel())
    shape = vec.shape[:-1] + (v1.size, 3)
    return origins.reshape(shape), directions.reshape(shape)


def reference_board_hits(vector, v1, v2, board):
    """``board_hits`` on :func:`reference_trace_batch`."""
    origins, directions = reference_trace_batch(vector, v1, v2)
    denom = directions @ board.normal
    safe = np.where(np.abs(denom) < 1e-300, np.nan, denom)
    offsets = board.point - origins
    t = (offsets @ board.normal) / safe
    return origins + t[..., None] * directions


def _reference_residual_rows(tx_layout, tx_theta1, rx_layout, rx_theta1,
                             rx_rotation, rx_translation, stack):
    """The (n, 6) Section 4.2 rows of one candidate."""
    rotations = stack.rotations @ rx_rotation
    translations = (np.einsum("nij,j->ni", stack.rotations, rx_translation)
                    + stack.positions)
    volts = stack.voltages
    tx_origins, tx_dirs, tx_pivots, tx_normals = reference_trace_rows(
        tx_layout, tx_theta1 * volts[:, 0], tx_theta1 * volts[:, 1])
    rx_origins, rx_dirs, rx_pivots, rx_normals = reference_trace_rows(
        placed(rx_layout, rotations, translations),
        rx_theta1 * volts[:, 2], rx_theta1 * volts[:, 3])
    if not (np.isfinite(tx_origins).all() and np.isfinite(rx_origins).all()):
        raise NoIntersectionError("a beam is parallel to a GMA mirror")
    tau_t, t_hit = reference_intersect_rows(tx_origins, tx_dirs, rx_pivots,
                                            rx_normals, forward_only=True)
    tau_r, r_hit = reference_intersect_rows(rx_origins, rx_dirs, tx_pivots,
                                            tx_normals)
    rows = np.concatenate([tx_origins - tau_r, rx_origins - tau_t], axis=1)
    rows[~(t_hit & r_hit)] = MISS_PENALTY_M
    return rows


def reference_mapping_residuals(tx_kspace, rx_kspace, samples):
    """The Section 4.2 fit residual, one candidate per call."""
    stack = _stack(samples)
    tx_layout = layout(tx_kspace.params.to_vector())
    rx_layout = layout(rx_kspace.params.to_vector())

    def residuals(params):
        tx_vr = placed(tx_layout, euler_to_matrix(*params[3:6]),
                       params[:3])
        return _reference_residual_rows(
            tx_vr, tx_kspace.params.theta1, rx_layout,
            rx_kspace.params.theta1, euler_to_matrix(*params[9:12]),
            params[6:9], stack).ravel()
    return residuals


def reference_mapping_jacobian(tx_kspace, rx_kspace, samples):
    """The Section 4.2 forward-difference Jacobian ``jac(x, f)``, one
    residual call per perturbed parameter."""
    residuals = reference_mapping_residuals(tx_kspace, rx_kspace, samples)
    return forward_jacobian(
        lambda rows: np.array([residuals(p) for p in rows]))


def reference_apply(hardware, v1, v2):
    """``hardware.apply(v1, v2)`` with one scalar jitter draw per mirror
    and the DAQ step recomputed per quantization."""
    daq = hardware.daq
    for v in (v1, v2):
        if not abs(v) <= daq.voltage_range_v:
            raise CoverageError(
                f"voltage {v:+.3f} V outside the +/-"
                f"{daq.voltage_range_v:.0f} V range")

    def quantize(voltage_v):
        clamped = min(max(voltage_v, -daq.voltage_range_v),
                      daq.voltage_range_v)
        step = 2.0 * daq.voltage_range_v / (2 ** daq.bits)
        return round(clamped / step) * step

    def true_angle(voltage):
        angle = (hardware.params.theta1 * voltage
                 + hardware.nonlinearity * voltage * voltage)
        if hardware.spec.angular_accuracy_rad > 0:
            angle += hardware.rng.normal(
                0.0, hardware.spec.angular_accuracy_rad)
        return angle

    new_v1 = quantize(v1)
    new_v2 = quantize(v2)
    step = max(abs(new_v1 - hardware._v1), abs(new_v2 - hardware._v2))
    hardware._v1, hardware._v2 = new_v1, new_v2
    hardware._angle1 = true_angle(new_v1)
    hardware._angle2 = true_angle(new_v2)
    return hardware.spec.settle_time_s(step * hardware.params.theta1)


def _second_plane(params, v1, v2):
    return reference_mirror_planes(params, params.theta1 * v1,
                                   params.theta1 * v2)[1]


def scalar_coincidence_residuals(system, sample):
    """The 6-vector ``(p_t - tau_r, p_r - tau_t)`` for one sample."""
    tx = system.tx_model_vr.params
    rx = system.rx_model_vr(sample.reported_pose).params
    tx_beam = reference_trace(tx, sample.v_tx1, sample.v_tx2)
    rx_beam = reference_trace(rx, sample.v_rx1, sample.v_rx2)
    try:
        tau_t = _second_plane(rx, sample.v_rx1, sample.v_rx2).intersect_ray(
            tx_beam)
        tau_r = _second_plane(tx, sample.v_tx1, sample.v_tx2).intersect_ray(
            rx_beam, forward_only=False)
    except NoIntersectionError:
        return np.full(6, MISS_PENALTY_M)
    return np.concatenate([tx_beam.origin - tau_r, rx_beam.origin - tau_t])


def gma_fit_residuals(samples, initial_guess, board=BOARD_PLANE):
    """The Section 4.1-B residual: board-hit misses, then the prior."""
    targets = np.array([[s.x, s.y] for s in samples])
    v1 = np.array([s.v1 for s in samples])
    v2 = np.array([s.v2 for s in samples])
    initial = initial_guess.to_vector()
    sigmas = _prior_sigmas(initial)

    def residuals(vector):
        hits = board_hits(vector, v1, v2, board.point, board.normal)[:, :2]
        res = (hits - targets).ravel()
        res = np.where(np.isfinite(res), res, 1e3)
        prior = (vector - initial) / sigmas * PRIOR_WEIGHT_M
        return np.concatenate([res, prior])
    return residuals


def reference_fit_gma(samples, initial_guess, board=BOARD_PLANE):
    """``fit_gma`` through ``scipy.optimize.least_squares``."""
    solution = least_squares(
        gma_fit_residuals(samples, initial_guess, board),
        initial_guess.to_vector(), method="lm", xtol=1e-15, ftol=1e-15)
    return GmaModel(GmaParams.from_vector(solution.x))


def mapping_fit_residuals(tx_kspace, rx_kspace, samples):
    """The Section 4.2 residual over the 12 mapping parameters."""
    stack = _stack(samples)
    tx_layout = layout(tx_kspace.params.to_vector())
    rx_layout = layout(rx_kspace.params.to_vector())

    def residuals(params):
        tx_vr = placed(tx_layout, euler_to_matrix(*params[3:6]),
                       params[:3])
        return _residual_rows(
            tx_vr[:, None], tx_kspace.params.theta1, rx_layout,
            rx_kspace.params.theta1, euler_to_matrix(*params[9:12])[None],
            params[None, 6:9], stack).ravel()
    return residuals


def reference_fit_mapping(tx_kspace, rx_kspace, samples,
                          initial_mapping_params):
    """``fit_mapping`` through ``scipy.optimize.least_squares``."""
    solution = least_squares(
        mapping_fit_residuals(tx_kspace, rx_kspace, samples),
        np.asarray(initial_mapping_params, dtype=float), method="lm",
        xtol=1e-15, ftol=1e-15)
    return LearnedSystem.from_mapping_params(tx_kspace, rx_kspace,
                                             solution.x)


def reference_voltages_hitting(rig, target_xy, tolerance_m=60e-6,
                               max_iterations=50):
    """``BoardRig.voltages_hitting`` on :class:`Ray`/:class:`Plane`
    board readings and an ``np.linalg.lstsq`` Newton step."""
    target = np.asarray(target_xy, dtype=float)
    v1, v2 = rig.hardware.voltages
    epsilon = 5e-3
    for _ in range(max_iterations):
        rig.hardware.apply(v1, v2)
        hit = observed_board_hit(rig)
        miss = target - hit
        if float(np.linalg.norm(miss)) <= tolerance_m:
            return v1, v2
        rig.hardware.apply(v1 + epsilon, v2)
        hit1 = observed_board_hit(rig)
        rig.hardware.apply(v1, v2 + epsilon)
        hit2 = observed_board_hit(rig)
        jacobian = np.column_stack([(hit1 - hit) / epsilon,
                                    (hit2 - hit) / epsilon])
        step, *_ = np.linalg.lstsq(jacobian, miss, rcond=None)
        step = np.clip(step, -1.5, 1.5)
        limit = rig.hardware.daq.voltage_range_v - 0.05
        v1 = float(np.clip(v1 + step[0], -limit, limit))
        v2 = float(np.clip(v2 + step[1], -limit, limit))
    raise PointingDivergedError(
        f"could not steer the beam onto {target} "
        f"within {max_iterations} iterations")


def reference_solve(model, target, v1=0.0, v2=0.0,
                    voltage_step_v=DEFAULT_VOLTAGE_STEP_V,
                    max_iterations=25):
    """``G'`` on ``model.beam`` rays, a :class:`Plane` through ``tau``
    and an ``np.linalg.lstsq`` solve of the 3x2 system."""
    tau = np.asarray(target, dtype=float)
    for iteration in range(1, max_iterations + 1):
        beam0 = Ray(*model.beam(v1, v2))
        plane = Plane(tau, beam0.direction)
        try:
            k0 = plane.intersect_ray(beam0, forward_only=False)
            k1 = plane.intersect_ray(Ray(*model.beam(v1 + EPSILON_V, v2)),
                                     forward_only=False)
            k2 = plane.intersect_ray(Ray(*model.beam(v1, v2 + EPSILON_V)),
                                     forward_only=False)
        except NoIntersectionError as exc:
            raise InverseDivergedError(
                f"beam became parallel to the target plane: {exc}") from exc
        u1 = (k1 - k0) / EPSILON_V
        u2 = (k2 - k0) / EPSILON_V
        basis = np.column_stack([u1, u2])
        coeffs, *_ = np.linalg.lstsq(basis, tau - k0, rcond=None)
        a, b = float(coeffs[0]), float(coeffs[1])
        v1 += a
        v2 += b
        if max(abs(a), abs(b)) < voltage_step_v:
            miss = Ray(*model.beam(v1, v2)).distance_to_point(tau)
            return InverseResult(v1=v1, v2=v2, iterations=iteration,
                                 miss_distance_m=miss)
    raise InverseDivergedError(
        f"G' did not converge on {tau} in {max_iterations} iterations")


def reference_evaluate(channel, body_pose):
    """``FsoChannel.evaluate`` through world-frame :class:`Ray` objects."""
    tx_beam = world_beam(channel.tx)
    rx_beam = world_beam(channel.rx, body_pose)
    p_r = rx_beam.origin

    # Where along the TX beam the receiver sits, and how far off axis.
    closest = tx_beam.closest_point_to(p_r)
    range_m = max(float(np.linalg.norm(closest - tx_beam.origin)),
                  MIN_RANGE_M)
    axis_offset = float(np.linalg.norm(p_r - closest))

    # The arriving wavefront direction at the receiver.
    curvature = channel.design.beam.curvature_radius_m(range_m)
    if np.isinf(curvature):
        wavefront = tx_beam.direction
    else:
        wavefront = normalize(
            tx_beam.direction + (p_r - closest) / curvature)
    # Behind the transmitter there is no light at all.
    behind = float(np.dot(p_r - tx_beam.origin, tx_beam.direction)) <= 0

    incidence = angle_between(wavefront, -rx_beam.direction)
    # The §5.1 roll-off, written out: 3 dB of excess loss per lateral
    # or angular width, quadratic in dB, floored at no light.
    design = channel.design
    lat = axis_offset / design.lateral_width_m(range_m)
    ang = incidence / design.angular_width_rad(range_m)
    power = design.peak_power_dbm(range_m) - 3.0 * (lat * lat + ang * ang)
    power = max(power, NOISE_FLOOR_DBM)
    if behind:
        power = NOISE_FLOOR_DBM
    connected = channel.design.sfp.signal_detected(power)
    return AlignmentState(
        received_power_dbm=power,
        axis_offset_m=axis_offset,
        incidence_angle_rad=incidence,
        range_m=range_m,
        connected=connected,
    )


def reference_ou_series(n, dt, tau, sigma, rng):
    """A stationary-start Ornstein-Uhlenbeck path, one sample at a time."""
    series = np.empty(n)
    series[0] = rng.normal(0.0, sigma)
    decay = math.exp(-dt / tau)
    innovation = sigma * math.sqrt(max(1.0 - decay * decay, 1e-12))
    for i in range(1, n):
        series[i] = decay * series[i - 1] + innovation * rng.normal()
    return series


def reference_saccade_series(n, dt, rate_hz, peak, rng):
    """Angular-velocity bursts: bell-shaped, Poisson arrivals, one at a time."""
    series = np.zeros(n)
    if rate_hz <= 0 or peak <= 0:
        return series
    for _ in range(rng.poisson(rate_hz * n * dt)):
        center = int(rng.integers(0, n))
        duration_s = rng.uniform(0.15, 0.45)
        width = max(int(duration_s / dt), 2)
        magnitude = peak * rng.lognormal(0.0, 0.4) * rng.choice([-1.0, 1.0])
        support = np.arange(max(center - width, 0), min(center + width, n))
        series[support] += magnitude * np.exp(
            -0.5 * ((support - center) / (width / 2.5)) ** 2)
    return series


def reference_generate_trace(viewer, video, profile=VIDEO_360,
                             duration_s=constants.TRACE_DURATION_S,
                             dt_s=constants.TRACE_REPORT_PERIOD_S, seed=0):
    """One viewing trace, drawn and integrated sample by sample."""
    rng = derive(seed, viewer, video)
    n = int(round(duration_s / dt_s)) + 1
    viewer_activity = rng.lognormal(0.0, profile.activity_sigma)
    video_activity = rng.lognormal(0.0, profile.activity_sigma)
    activity = min(viewer_activity * video_activity, profile.activity_cap)

    wander = math.radians(profile.wander_speed_deg_s) * activity
    omega = np.zeros((n, 3))
    omega[:, 2] = reference_ou_series(n, dt_s, 0.8, wander, rng)  # yaw
    omega[:, 1] = reference_ou_series(n, dt_s, 0.8, wander * 0.45, rng)
    omega[:, 0] = reference_ou_series(n, dt_s, 0.8, wander * 0.2, rng)
    omega[:, 2] += reference_saccade_series(
        n, dt_s, profile.saccade_rate_hz,
        math.radians(profile.saccade_peak_deg_s) * activity, rng)

    velocity = np.column_stack([
        reference_ou_series(n, dt_s, 1.2, profile.sway_speed_m_s * activity,
                            rng)
        for _ in range(3)])
    velocity[:, 2] *= 0.4  # vertical sway is smaller

    eulers = np.cumsum(omega * dt_s, axis=0)
    positions = np.cumsum(velocity * dt_s, axis=0)
    positions -= positions[0]
    return HeadTrace(
        viewer=viewer, video=video, dt_s=dt_s, positions=positions,
        eulers=eulers,
        step_linear_m=np.linalg.norm(np.diff(positions, axis=0), axis=1),
        step_angular_rad=np.linalg.norm(omega[1:], axis=1) * dt_s)


def reference_simulate_trace(trace, params=TimeslotParams()):
    """The Section 5.4 replay, slot by slot: the (slots,) bool array."""
    ratio = trace.dt_s / params.slot_s
    slots_per_report = int(round(ratio))
    if slots_per_report < 1:
        raise ValueError("slots must be finer than the report period")
    if abs(ratio - slots_per_report) > 1e-9 * ratio:
        raise ValueError(
            f"report period dt_s={trace.dt_s!r} is not a whole number of "
            f"slots of slot_s={params.slot_s!r}")
    n_steps = len(trace.step_linear_m)
    connected = np.empty(n_steps * slots_per_report, dtype=bool)

    # The link begins aligned: only the TP residual is present.
    lateral_err = params.residual_lateral_m
    angular_err = params.residual_angular_rad
    slot_index = 0
    for step in range(n_steps):
        lateral_rate = trace.step_linear_m[step] / slots_per_report
        angular_rate = trace.step_angular_rad[step] / slots_per_report
        for sub in range(slots_per_report):
            # A report arrived at the start of this interval; the
            # realignment lands tp_latency_slots later.  When that is
            # at or past the report period it never lands and the
            # link drifts for the rest of the trace.
            if sub == params.tp_latency_slots and step > 0:
                lateral_err = params.residual_lateral_m
                angular_err = params.residual_angular_rad
            lateral_err += lateral_rate
            angular_err += angular_rate
            connected[slot_index] = (
                lateral_err <= params.lateral_tolerance_m
                and angular_err <= params.angular_tolerance_rad)
            slot_index += 1
    return connected


def reference_tolerance(margin_db, lateral_width_m, angular_width_rad,
                        lateral_rate, angular_rate, lateral_start_m=0.0,
                        angular_start_rad=0.0):
    """Largest motion along the path whose excess loss fits the margin."""
    def excess(s):
        return excess_loss_db(lateral_start_m + lateral_rate * s,
                              lateral_width_m,
                              angular_start_rad + angular_rate * s,
                              angular_width_rad)

    if margin_db <= 0 or excess(0.0) >= margin_db:
        return 0.0
    lo, hi = 0.0, 1.0
    while excess(hi) < margin_db:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if excess(mid) < margin_db:
            lo = mid
        else:
            hi = mid
