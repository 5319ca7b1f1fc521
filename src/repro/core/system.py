"""The learned Cyclops system: both GMA models placed in VR-space.

After Section 4.1 (K-space models) and Section 4.2 (mapping
parameters), the pointing mechanism needs exactly three things:

* the TX GMA model expressed directly in VR-space (TX is static, so
  its mapping is a fixed rigid transform);
* the RX GMA model in its own K-space;
* the RX mapping: where the RX GMA sits *relative to the headset
  reference point X* whose pose VRH-T reports.  The RX model's
  VR-space placement is then recomputed from every tracking report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..geometry import Pose
from .gma import GmaModel


@dataclass(frozen=True)
class LearnedSystem:
    """Everything the real-time pointing function ``P`` consumes."""

    tx_model_vr: GmaModel
    rx_model_kspace: GmaModel
    rx_mapping: Pose

    @classmethod
    def from_mapping_params(cls, tx_kspace: GmaModel, rx_kspace: GmaModel,
                            mapping_params: npt.ArrayLike
                            ) -> "LearnedSystem":
        """Assemble from the 12 mapping parameters of Section 4.2.

        The first six place TX's K-space in VR-space; the last six
        place RX's K-space relative to the reported headset point.
        """
        params = np.asarray(mapping_params, dtype=float)
        if params.shape != (12,):
            raise ValueError(f"expected 12 mapping parameters, "
                             f"got shape {params.shape}")
        return cls(tx_model_vr=tx_kspace.transformed(
                       Pose.from_params(params[:6])),
                   rx_model_kspace=rx_kspace,
                   rx_mapping=Pose.from_params(params[6:]))

    def rx_model_vr(self, reported_pose: Pose) -> GmaModel:
        """The RX GMA model in VR-space for one tracking report."""
        return self.rx_model_kspace.transformed(
            reported_pose.compose(self.rx_mapping))
