"""Import-graph guard: scipy stays out of the runtime.

Nothing in ``repro`` imports scipy.  The Section 4 fits run on
:mod:`repro.core.lsq` (``scipy.optimize`` and the ``scipy.linalg`` it
loads would be most of a second of import), and OU trace generation is
an in-place numpy AR(1) scan (``scipy.signal`` and the
``scipy.stats``/``special``/``fft`` it loads would be about a second
more, and ~76 MB resident).  Importing ``repro``, calibrating a testbed
and running the Section 5.4 trace pipeline must load no scipy module.
Each check runs in a fresh interpreter, since this test process has
imported everything already, and after the work, so an import deferred
into a call is caught too.  No timing is asserted.
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

FULL_RUN = """
import sys
from repro.motion import generate_trace
from repro.motion.batch import generate_batch
from repro.simulate import Testbed
from repro.simulate.batch import simulate_batch
Testbed(seed=3).calibrate()
generate_trace(0, 0, duration_s=1.0)
for columns in ("full", "steps"):
    simulate_batch(generate_batch(viewers=2, videos=2, duration_s=1.0,
                                  columns=columns))
print(",".join(sorted(name for name in sys.modules
                      if name.split(".")[0] == "scipy")) or "none")
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


def test_deployment_and_trace_pipeline_load_no_scipy():
    assert run_python(FULL_RUN) == ["none"]
