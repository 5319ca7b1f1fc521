"""The full Cyclops testbed: every physical truth in one place.

:class:`Testbed` builds the complete simulated prototype:

* two real (imperfect) galvo assemblies with *hidden* true parameters,
  each expressed in its own K-space exactly as it sat on the
  calibration bench;
* the rigid placements: TX's K-space onto the ceiling
  (``tx_kspace_to_world``) and RX's K-space onto the headset body
  (``rx_kspace_to_body``);
* the hidden VRH-T frames: world-to-VR-space ``V`` and the headset
  reference-point offset ``X``;
* the FSO channel for a chosen link design.

The learning pipeline (:meth:`calibrate`) only ever touches the testbed
through the same interfaces the real prototype offers: steer voltages,
read received power, read tracker reports, read board-spot positions.
Tests may inspect the hidden truth; the pipeline must not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .. import constants
from ..core import (
    AlignedSample,
    BoardRig,
    GmaModel,
    LearnedSystem,
    alignment,
    fit_gma,
    fit_mapping,
    interior_grid_points,
    point,
)
from ..determinism import resolve_rng, spawn
from ..galvo import GVS102, GalvoHardware, GmaParams, canonical_gma, trace
from ..geometry import (
    Pose,
    euler_to_matrix,
    normalize,
    rotation_between,
)
from ..link import FsoChannel, LinkDesign, link_10g_diverging
from ..vrh import RxAssembly, TxAssembly, VrhTracker

#: True voltage-to-angle quadratic term (rad / V^2): the hidden
#: hardware imperfection that gives the learned linear model its
#: irreducible, Table-2-magnitude error.
TRUE_NONLINEARITY = 1.2e-5

#: Nominal head position in the world frame (meters).
HOME_POSITION = np.array([0.0, 0.15, 1.0])

#: TX second-mirror positions for the two supported geometries.
#: "bench": the paper's evaluation prototype (Fig. 12) -- both
#: terminals at table height, a near-horizontal 1.5-2 m link.
#: "ceiling": the envisioned deployment (Fig. 5) -- TX overhead.
TX_MIRROR_BENCH = np.array([0.0, -1.55, 1.15])
TX_MIRROR_CEILING = np.array([0.0, 0.0, 2.6])

#: RX second-mirror position in the headset body frame.
RX_MIRROR_BODY = np.array([0.05, 0.03, 0.10])


def _perturbed_params(params: GmaParams, rng: np.random.Generator,
                      point_sigma_m: float, angle_sigma_rad: float,
                      theta_rel_sigma: float) -> GmaParams:
    """A GMA parameter set wiggled by assembly/measurement tolerances."""

    def wiggle_point(p):
        return p + rng.normal(0.0, point_sigma_m, size=3)

    def wiggle_direction(d):
        return normalize(d + rng.normal(0.0, angle_sigma_rad, size=3))

    return GmaParams(
        p0=wiggle_point(params.p0),
        x0=wiggle_direction(params.x0),
        n1=wiggle_direction(params.n1),
        q1=wiggle_point(params.q1),
        r1=wiggle_direction(params.r1),
        n2=wiggle_direction(params.n2),
        q2=wiggle_point(params.q2),
        r2=wiggle_direction(params.r2),
        theta1=params.theta1 * float(1.0 + rng.normal(0.0, theta_rel_sigma)),
    )


def _rest_direction(params: GmaParams) -> np.ndarray:
    """The unit direction of a GMA's rest (zero-volt) beam."""
    return normalize(trace(params, 0.0, 0.0)[1])


def _placement_to(rotation: np.ndarray, kspace_mirror: np.ndarray,
                  target_mirror: np.ndarray) -> Pose:
    """The placement rotating by ``rotation`` and landing the GMA's
    second mirror (K-space position ``kspace_mirror``) on
    ``target_mirror``."""
    return Pose(target_mirror - rotation @ kspace_mirror, rotation)


@dataclass(frozen=True)
class CalibrationOutcome:
    """Everything :meth:`Testbed.calibrate` produces."""

    system: LearnedSystem
    tx_kspace_model: GmaModel
    rx_kspace_model: GmaModel
    mapping_samples: List[AlignedSample]


@dataclass
class Testbed:
    """One fully wired simulated prototype."""

    design: LinkDesign = field(default_factory=link_10g_diverging)
    seed: int = 7
    nonlinearity: float = TRUE_NONLINEARITY
    geometry: str = "bench"

    def __post_init__(self):
        if self.geometry == "bench":
            tx_mirror_world = TX_MIRROR_BENCH
        elif self.geometry == "ceiling":
            tx_mirror_world = TX_MIRROR_CEILING
        else:
            raise ValueError(f"unknown geometry {self.geometry!r}; "
                             f"use 'bench' or 'ceiling'")
        self.tx_mirror_world = tx_mirror_world
        rng = resolve_rng(seed=self.seed, owner="Testbed")
        self.rng = rng
        theta1 = GVS102.mech_rad_per_volt

        # True K-space geometry of both units: canonical design, placed
        # facing the calibration board (firing -z from z ~ 1.5 m), with
        # per-unit manual-assembly wiggle.
        board_facing = _placement_to(
            euler_to_matrix(np.pi, 0.0, 0.0),
            canonical_gma(theta1).q2,
            np.array([0.0, 0.0, constants.KSPACE_BOARD_DISTANCE_M]))
        base = canonical_gma(theta1, board_facing)
        tx_truth = _perturbed_params(base, rng, 1e-3, np.radians(0.5), 0.01)
        rx_truth = _perturbed_params(base, rng, 1e-3, np.radians(0.5), 0.01)
        self.tx_hardware = GalvoHardware(
            tx_truth, nonlinearity=self.nonlinearity, rng=spawn(rng))
        self.rx_hardware = GalvoHardware(
            rx_truth, nonlinearity=self.nonlinearity, rng=spawn(rng))

        # Deployment placements.  Each mount is oriented so the GMA's
        # rest beam (zero volts) points at the other terminal's nominal
        # position -- the installer "roughly aims" both units -- which
        # keeps the working voltages comfortably inside the +/-10 V
        # coverage cone.  A small mounting-tilt error is added on top.
        rx_mirror_home = HOME_POSITION + RX_MIRROR_BODY
        tx_rest_dir = _rest_direction(tx_truth)
        tx_aim = rotation_between(tx_rest_dir,
                                  rx_mirror_home - tx_mirror_world)
        tx_tilt = euler_to_matrix(*rng.normal(0.0, np.radians(1.0), size=3))
        self.tx_kspace_to_world = _placement_to(
            tx_tilt @ tx_aim, tx_truth.q2, tx_mirror_world)
        rx_rest_dir = _rest_direction(rx_truth)
        rx_aim = rotation_between(rx_rest_dir,
                                  tx_mirror_world - rx_mirror_home)
        rx_tilt = euler_to_matrix(*rng.normal(0.0, np.radians(1.0), size=3))
        self.rx_kspace_to_body = _placement_to(
            rx_tilt @ rx_aim, rx_truth.q2, RX_MIRROR_BODY)

        self.tx_assembly = TxAssembly(self.tx_hardware,
                                      self.tx_kspace_to_world)
        self.rx_assembly = RxAssembly(self.rx_hardware,
                                      self.rx_kspace_to_body)
        self.channel = FsoChannel(self.design, self.tx_assembly,
                                  self.rx_assembly)

        # Hidden VRH-T frames: VR-space is gravity-aligned but has an
        # arbitrary origin and yaw; the reference point X sits somewhere
        # inside the headset.  Each frame draws its angles before its
        # offset.
        vr_yaw = euler_to_matrix(0.0, 0.0,
                                 float(rng.uniform(-np.pi, np.pi)))
        self.vr_from_world = Pose(rng.uniform(-1.5, 1.5, size=3), vr_yaw)
        x_tilt = euler_to_matrix(*rng.normal(0.0, 0.08, size=3))
        self.x_offset = Pose(rng.normal(0.0, 0.04, size=3), x_tilt)
        self.tracker = VrhTracker(
            self.vr_from_world, self.x_offset, rng=spawn(rng))

        self.home_pose = Pose(HOME_POSITION.copy(), np.eye(3))

    # -- physical interfaces the pipeline is allowed to use -----------------

    def apply_command(self, command) -> float:
        """Steer both GMs; returns the slower of the two settle times."""
        tx_settle = self.tx_hardware.apply(*command.tx_voltages)
        rx_settle = self.rx_hardware.apply(*command.rx_voltages)
        return max(tx_settle, rx_settle)

    def power_function(self, body_pose: Pose):
        """4-voltage power probe for the exhaustive alignment search."""

        def probe(v_tx1, v_tx2, v_rx1, v_rx2):
            self.tx_hardware.apply(v_tx1, v_tx2)
            self.rx_hardware.apply(v_rx1, v_rx2)
            return self.channel.received_power_dbm(body_pose)

        return probe

    # -- hidden-truth accessors (tests and oracle seeding only) -------------

    def oracle_system(self) -> LearnedSystem:
        """A ``LearnedSystem`` built from the *true* parameters.

        Used only to seed the exhaustive search (the stand-in for the
        deployer's by-eye coarse alignment) and by tests; the learning
        pipeline never sees it.
        """
        tx_vr = self.vr_from_world.compose(self.tx_kspace_to_world)
        rx_mapping = self.x_offset.inverse().compose(self.rx_kspace_to_body)
        return LearnedSystem(
            tx_model_vr=GmaModel(self.tx_hardware.params).transformed(tx_vr),
            rx_model_kspace=GmaModel(self.rx_hardware.params),
            rx_mapping=rx_mapping,
        )

    # -- deployment-time procedures ------------------------------------------

    def align_exhaustively(self, body_pose: Pose) -> alignment.AlignmentResult:
        """Run the exhaustive power search at one (locked) pose."""
        seed_command = point(self.oracle_system(),
                             self.tracker.report(body_pose))
        return alignment.search(self.power_function(body_pose),
                                seed=seed_command.voltages)

    def training_poses(self, count: int) -> List[Pose]:
        """Random headset poses for mapping training (around home)."""
        return self.random_poses(count, position_range_m=0.2,
                                 angle_range_rad=np.radians(8))

    def evaluation_poses(self, count: int) -> List[Pose]:
        """Random poses for TP-accuracy tests (Section 5.2's trials).

        Slightly tighter than the training envelope, matching the
        hand-held "move randomly then lock" procedure of the paper.
        """
        return self.random_poses(count, position_range_m=0.15,
                                 angle_range_rad=np.radians(6))

    def random_poses(self, count: int, position_range_m: float,
                     angle_range_rad: float) -> List[Pose]:
        """Uniform random poses in a box/cone around the home pose."""
        poses = []
        for _ in range(count):
            position = HOME_POSITION + self.rng.uniform(
                -position_range_m, position_range_m, size=3)
            orientation = euler_to_matrix(*self.rng.uniform(
                -angle_range_rad, angle_range_rad, size=3))
            poses.append(Pose(position, orientation))
        return poses

    def collect_mapping_samples(
            self, count: int = constants.MAPPING_TRAINING_SAMPLES,
            ) -> List[AlignedSample]:
        """Gather Section 4.2's 5-tuples: align, then read the tracker."""
        samples = []
        for pose in self.training_poses(count):
            result = self.align_exhaustively(pose)
            samples.append(AlignedSample(
                v_tx1=result.voltages[0], v_tx2=result.voltages[1],
                v_rx1=result.voltages[2], v_rx2=result.voltages[3],
                reported_pose=self.tracker.report(pose)))
        return samples

    def calibrate(self,
                  mapping_samples: int = constants.MAPPING_TRAINING_SAMPLES,
                  ) -> CalibrationOutcome:
        """Run the full Section 4 pipeline against the hidden hardware.

        1. Board-calibrate each GMA in its K-space (Section 4.1),
           starting from a CAD-quality initial guess.
        2. Collect aligned 5-tuples at random poses (Section 4.2).
        3. Jointly fit the 12 mapping parameters, starting from a
           tape-measure-quality placement guess.
        """
        grid = interior_grid_points()
        models = {}
        for name, hardware in (("tx", self.tx_hardware),
                               ("rx", self.rx_hardware)):
            rig = BoardRig(hardware, rng=spawn(self.rng))
            guess = _perturbed_params(hardware.params, self.rng,
                                      3e-3, np.radians(1.0), 0.01)
            models[name] = fit_gma(rig.collect_samples(grid), guess)

        samples = self.collect_mapping_samples(mapping_samples)

        oracle = self.oracle_system()
        true_tx_map = self.vr_from_world.compose(self.tx_kspace_to_world)
        initial = np.concatenate([
            self._perturbed_transform(true_tx_map, 0.02,
                                      np.radians(3.0)).to_params(),
            self._perturbed_transform(oracle.rx_mapping, 0.02,
                                      np.radians(3.0)).to_params(),
        ])
        system = fit_mapping(models["tx"], models["rx"], samples, initial)
        return CalibrationOutcome(system=system,
                                  tx_kspace_model=models["tx"],
                                  rx_kspace_model=models["rx"],
                                  mapping_samples=samples)

    def apply_tracker_drift(self,
                            translation_m: Sequence[float] = (0.0, 0.0, 0.0),
                            yaw_rad: float = 0.0) -> None:
        """Simulate VRH-T drift: the VR-space frame shifts.

        Inside-out trackers slowly re-anchor their world origin; after
        enough drift the learned mapping parameters are stale and the
        only re-training needed is the Section 4.2 mapping step
        (see :mod:`repro.core.retraining`).
        """
        drift = Pose(np.asarray(translation_m, dtype=float),
                     euler_to_matrix(0.0, 0.0, float(yaw_rad)))
        self.vr_from_world = drift.compose(self.vr_from_world)
        self.tracker.vr_from_world = self.vr_from_world

    def _perturbed_transform(self, transform: Pose,
                             translation_sigma_m: float,
                             angle_sigma_rad: float) -> Pose:
        """A rigid placement wiggled by deployment-measurement error."""
        params = transform.to_params()
        params[:3] += self.rng.normal(0.0, translation_sigma_m, size=3)
        params[3:] += self.rng.normal(0.0, angle_sigma_rad, size=3)
        return Pose.from_params(params)
