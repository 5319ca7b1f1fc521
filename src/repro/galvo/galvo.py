"""The simulated "real" galvo hardware.

:class:`GalvoHardware` is the ground-truth device the learning pipeline
calibrates against.  It evaluates the same two-mirror reflection chain
as the learnable model, but with imperfections the learner never sees
directly:

* a small quadratic term in the voltage-to-angle response (real servo
  amplifiers are not perfectly linear; the paper's linear ``theta1 * v``
  model is an approximation, and this term is what creates irreducible
  model error of the Table 2 kind);
* per-command angular jitter at the spec'd 10 urad accuracy;
* DAC quantization of the commanded voltages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..determinism import resolve_rng
from ..geometry import Plane, Ray
from .daq import Daq
from .mirror import GmaParams, second_mirror_plane, trace
from .specs import GVS102, GalvoSpec


class CoverageError(ValueError):
    """A commanded voltage fell outside the GM coverage cone.

    The servo controller rejects voltages beyond the DAQ's +/-10 V
    range rather than clamping, so pointing must stay inside the
    field-of-view the mirrors can reach.  Subclasses ``ValueError``
    for backward compatibility with callers that caught the generic
    rejection.
    """


@dataclass
class GalvoHardware:
    """Ground-truth GMA: hidden true parameters plus imperfections.

    ``nonlinearity`` is the quadratic coefficient ``kappa`` in
    ``angle = theta1 * v + kappa * v**2`` (radians per volt squared).
    """

    params: GmaParams
    spec: GalvoSpec = GVS102
    daq: Daq = field(default_factory=Daq)
    nonlinearity: float = 0.0
    #: Jitter source.  Pass ``rng`` or ``seed``; constructing without
    #: either raises unless ``deterministic=False`` documents the
    #: OS-entropy opt-in (see :mod:`repro.determinism`).
    rng: Optional[np.random.Generator] = None
    seed: Optional[int] = None
    deterministic: bool = True

    def __post_init__(self) -> None:
        self.rng = resolve_rng(self.rng, self.seed, self.deterministic,
                               owner="GalvoHardware")
        self._v1 = 0.0
        self._v2 = 0.0
        self._angle1 = self._true_angle(0.0)
        self._angle2 = self._true_angle(0.0)

    # -- voltage handling ----------------------------------------------------

    @property
    def voltages(self) -> Tuple[float, float]:
        """Currently applied (quantized) voltages."""
        return self._v1, self._v2

    def apply(self, v1: float, v2: float) -> float:
        """Command new voltages; returns the mirror settle time.

        Voltages outside the DAC range raise ``ValueError`` (the servo
        controller rejects them) rather than silently clamping, so the
        pointing algorithms must stay inside the coverage cone.  The
        true mirror angles (nonlinearity + jitter) are drawn once per
        command, so every query between two commands sees one
        consistent physical state.
        """
        for v in (v1, v2):
            if not self.daq.in_range(v):
                raise CoverageError(
                    f"voltage {v:+.3f} V outside the +/-"
                    f"{self.daq.voltage_range_v:.0f} V range")
        new_v1 = self.daq.quantize(v1)
        new_v2 = self.daq.quantize(v2)
        step = max(abs(new_v1 - self._v1), abs(new_v2 - self._v2))
        self._v1, self._v2 = new_v1, new_v2
        self._angle1 = self._true_angle(new_v1)
        self._angle2 = self._true_angle(new_v2)
        return self.spec.settle_time_s(step * self.params.theta1)

    # -- the physical response -----------------------------------------------

    def _true_angle(self, voltage: float) -> float:
        """True mirror angle for a voltage, with nonlinearity and jitter."""
        angle = (self.params.theta1 * voltage
                 + self.nonlinearity * voltage * voltage)
        if self.spec.angular_accuracy_rad > 0:
            angle += self.rng.normal(0.0, self.spec.angular_accuracy_rad)
        return angle

    def output_beam(self) -> Ray:
        """The beam currently leaving the GMA (in the params' frame)."""
        return trace(self.params, self._v1, self._v2,
                     angle1_rad=self._angle1, angle2_rad=self._angle2)

    def second_mirror_plane(self) -> Plane:
        """The second mirror's current plane (in the params' frame).

        The channel needs this to locate where an arriving beam strikes
        the steering mirror -- the paper's target point ``tau``.
        """
        return second_mirror_plane(self.params, self._angle2)

    def beam_for(self, v1: float, v2: float) -> Ray:
        """Apply voltages and return the resulting beam in one call."""
        self.apply(v1, v2)
        return self.output_beam()
