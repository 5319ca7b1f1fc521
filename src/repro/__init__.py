"""Cyclops: an FSO-based wireless link for VR headsets (SIGCOMM 2022).

A full-system reproduction in simulation.  The public API is organized
by layer:

* :mod:`repro.geometry` -- vectors, rotations, rigid poses (SE(3));
* :mod:`repro.optics` -- beams, coupling, transceivers, link budgets;
* :mod:`repro.galvo` -- galvo-mirror hardware (the simulated truth);
* :mod:`repro.vrh` -- the headset's built-in tracker and the TX/RX
  assemblies;
* :mod:`repro.core` -- the paper's contribution: the learned
  tracking-and-pointing pipeline (Sections 4.1-4.3);
* :mod:`repro.link` -- link designs, the FSO channel, link state;
* :mod:`repro.motion` -- stages, hand motion, head traces, speeds;
* :mod:`repro.parallel` -- the deterministic chunked process-pool map;
* :mod:`repro.simulate` -- the testbed and the Section 5 harnesses;
* :mod:`repro.net` -- iperf-style throughput measurement;
* :mod:`repro.baselines` -- alternatives the paper argues against;
* :mod:`repro.stream` -- VR video formats and frame transport;
* :mod:`repro.plan` -- ceiling-TX coverage planning;
* :mod:`repro.analysis` -- closed-form tolerated-speed budgets;
* :mod:`repro.reporting` -- text tables and terminal plots.

The CLI (:mod:`repro.cli`) sits on top and is not imported here.

Quick start::

    from repro.simulate import Testbed, PrototypeSession

    testbed = Testbed(seed=7)            # a full simulated prototype
    outcome = testbed.calibrate()        # Sections 4.1 + 4.2
    session = PrototypeSession(testbed, outcome.system)
    result = session.run(profile)        # any pose_at(t) motion
"""

from . import (
    analysis,
    baselines,
    constants,
    core,
    galvo,
    geometry,
    link,
    motion,
    net,
    optics,
    parallel,
    plan,
    reporting,
    simulate,
    stream,
    vrh,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "constants",
    "core",
    "galvo",
    "geometry",
    "link",
    "motion",
    "net",
    "optics",
    "parallel",
    "plan",
    "reporting",
    "simulate",
    "stream",
    "vrh",
    "__version__",
]
