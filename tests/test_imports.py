"""Import contract: of scipy, alegeo loads only LAPACK (scipy.linalg).

The Newton Jacobian is factored by banded LAPACK, so no scipy.sparse is
loaded.  scipy.integrate and scipy.interpolate (and the scipy.special and
scipy.optimize they pull in) are imported by the custom and sampled
profile constructors alone.  A fresh interpreter is needed, since the
test session itself imports them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import alegeo, alegeo.cli, alegeo.runner, alegeo.energy, alegeo.geodesic

heavy = ("scipy.integrate", "scipy.interpolate", "scipy.special",
         "scipy.optimize", "scipy.sparse")
loaded = sorted({".".join(m.split(".")[:2]) for m in sys.modules}
                & set(heavy))
assert not loaded, f"loaded by import alegeo: {loaded}"

ref = alegeo.lebrun_profile(2, 1.0, tau_max=1e4)
taus = np.geomspace(1.0, 1e4, 400)
p = alegeo.sampled_profile(2, 2, 1.0, taus, ref.phi(taus))
assert "scipy.interpolate" in sys.modules
probe = np.geomspace(1.5, 5e3, 40)
back = p.tau_of_rho(p.rho_of_tau(probe))
assert np.max(np.abs(back / probe - 1.0)) < 1e-12, back / probe - 1.0
"""


def test_import_loads_no_quadrature_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
