"""Import contract: of scipy, alegeo loads only LAPACK's _flapack.

The Newton Jacobian is factored by banded LAPACK, so no scipy.sparse is
loaded.  geodesic loads scipy's _flapack extension from its own file, so
scipy.linalg is not imported either; where that file is not where
geodesic looks for it, geodesic falls back to scipy.linalg.lapack.  The
band LU runs on one thread of scipy's OpenBLAS pool.  scipy.integrate and
scipy.interpolate (and the scipy.special and scipy.optimize they pull in)
are imported by the custom and sampled profile constructors alone.  A
fresh interpreter is needed, since the test session itself imports them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT = """
import alegeo, alegeo.cli, alegeo.runner, alegeo.energy, alegeo.geodesic
"""

HELP = """
from alegeo.cli import main
try:
    main(["--help"])
except SystemExit as exit:
    assert exit.code in (0, None), exit.code
"""

CONTRACT = """
import importlib.machinery
import sys
from pathlib import Path
import scipy

heavy = ("scipy.integrate", "scipy.interpolate", "scipy.special",
         "scipy.optimize", "scipy.sparse")
loaded = sorted({".".join(m.split(".")[:2]) for m in sys.modules}
                & set(heavy))
assert not loaded, f"loaded by import alegeo: {loaded}"

folder = Path(scipy.__file__).parent / "linalg"
if any((folder / f"_flapack{suffix}").is_file()
       for suffix in importlib.machinery.EXTENSION_SUFFIXES):
    assert "scipy.linalg" not in sys.modules, "loaded scipy.linalg"
    from alegeo import geodesic
    import scipy.linalg.lapack as lapack
    assert lapack.dgbtrf is geodesic.dgbtrf
    assert lapack.dgbtrs is geodesic.dgbtrs
"""

PROFILES = """
import numpy as np
ref = alegeo.lebrun_profile(2, 1.0, tau_max=1e4)
taus = np.geomspace(1.0, 1e4, 400)
p = alegeo.sampled_profile(2, 2, 1.0, taus, ref.phi(taus))
assert "scipy.interpolate" in sys.modules
probe = np.geomspace(1.5, 5e3, 40)
back = p.tau_of_rho(p.rho_of_tau(probe))
assert np.max(np.abs(back / probe - 1.0)) < 1e-12, back / probe - 1.0
"""


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_quadrature_stack():
    _run_fresh(IMPORT + CONTRACT + PROFILES)


def test_cli_help_keeps_the_import_contract():
    _run_fresh(HELP + CONTRACT)
