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

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..geometry import Vec3
from .daq import Daq
from .mirror import GmaParams, trace
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

    #: The one DAC every GMA is driven through (16 bits over +/-10 V).
    daq: ClassVar[Daq] = Daq()

    params: GmaParams
    spec: GalvoSpec = GVS102
    nonlinearity: float = 0.0
    #: Jitter source, required: constructing without one raises (see
    #: :mod:`repro.determinism`).
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            raise ValueError("GalvoHardware needs an explicit "
                             "rng=np.random.Generator")
        self._v1 = 0.0
        self._v2 = 0.0
        self._settle(0.0, 0.0)

    # -- voltage handling ----------------------------------------------------

    @property
    def voltages(self) -> Tuple[float, float]:
        """Currently applied (quantized) voltages."""
        return self._v1, self._v2

    def apply(self, v1: float, v2: float) -> float:
        """Command new voltages; returns the mirror settle time.

        Voltages outside the DAC range (or not finite) raise
        :class:`CoverageError` (the servo controller rejects them)
        rather than silently clamping, so the pointing algorithms must
        stay inside the coverage cone; a rejected command changes no
        state and draws no jitter.  The true mirror angles
        (nonlinearity + jitter) are drawn once per command, so every
        query between two commands sees one consistent physical state.
        """
        daq = self.daq
        for v in (v1, v2):
            if not daq.in_range(v):
                raise CoverageError(
                    f"voltage {v:+.3f} V outside the +/-"
                    f"{daq.voltage_range_v:.0f} V range")
        new_v1 = daq.quantize(v1)
        new_v2 = daq.quantize(v2)
        step = max(abs(new_v1 - self._v1), abs(new_v2 - self._v2))
        self._v1, self._v2 = new_v1, new_v2
        self._settle(new_v1, new_v2)
        return self.spec.settle_time_s(step * self.params.theta1)

    # -- the physical response -----------------------------------------------

    def _settle(self, v1: float, v2: float) -> None:
        """Set the true mirror angles for applied voltages.

        Each angle is ``theta1 * v + kappa * v**2`` plus jitter; both
        mirrors' jitter comes from one two-sample draw, the same stream
        as a scalar draw for the first mirror, then the second.
        """
        theta1 = self.params.theta1
        kappa = self.nonlinearity
        angle1 = theta1 * v1 + kappa * v1 * v1
        angle2 = theta1 * v2 + kappa * v2 * v2
        accuracy = self.spec.angular_accuracy_rad
        if accuracy > 0:
            jitter1, jitter2 = self.rng.normal(0.0, accuracy, 2).tolist()
            angle1 += jitter1
            angle2 += jitter2
        self._angle1 = angle1
        self._angle2 = angle2

    def output_beam(self) -> Tuple[Vec3, Vec3]:
        """The beam currently leaving the GMA (in the params' frame),
        as float ``(origin, direction)`` triples."""
        return trace(self.params, self._angle1, self._angle2)
