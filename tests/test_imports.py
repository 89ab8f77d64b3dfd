import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_optimize():
    # Importing scipy.optimize costs ~200 ms of start-up; nothing in nfg needs it.
    # scipy.special serves only the Fock oracle, which `nfg.cli` imports lazily,
    # and the rest of the package runs on NumPy alone, so no scipy module loads.
    code = (
        "import sys, nfg, nfg.cli; "
        "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules, "
        "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False False False"
