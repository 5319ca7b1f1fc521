"""Import-graph guard: scipy stays off the deployment path.

``scipy.signal`` (with the ``scipy.stats``, ``scipy.special`` and
``scipy.fft`` it loads) is about a second of import, for one function,
``lfilter``, that only OU trace generation calls.  ``scipy.optimize``
(and the ``scipy.linalg`` it loads) would be most of a second more;
the Section 4 fits run on :mod:`repro.core.lsq` instead.  Importing
``repro`` and calibrating a testbed must load none of the three; the
first trace generation must load ``scipy.signal``.  Each check runs in
a fresh interpreter, since this test process has imported everything
already, and after the calibration, so an import deferred into the
fits is caught too.  No timing is asserted.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DEPLOYMENT_PATH = """
import sys
import repro
import repro.motion.batch
from repro.simulate import PrototypeSession, Testbed
Testbed(seed=3).calibrate()
for name in ("scipy.signal", "scipy.optimize", "scipy.linalg"):
    print(name in sys.modules)
"""

FIRST_TRACE = """
import sys
from repro.motion import generate_trace
print("scipy.signal" in sys.modules)
generate_trace(0, 0, duration_s=1.0)
print("scipy.signal" in sys.modules)
"""


def run_python(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, env=env,
                          cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_and_calibrate_leave_scipy_signal_unloaded():
    assert run_python(DEPLOYMENT_PATH) == ["False", "False", "False"]


def test_first_trace_generation_loads_scipy_signal():
    assert run_python(FIRST_TRACE) == ["False", "True"]
