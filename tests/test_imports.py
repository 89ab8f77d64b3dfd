import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: A Python expression: is any scipy module loaded?
ANY_SCIPY = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def _run(code: str) -> str:
    """Run `code` in a fresh interpreter that imports nfg from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy_optimize():
    # Importing scipy.optimize costs ~200 ms of start-up; nothing in nfg needs it.
    # scipy.special serves only the Fock oracle, which `nfg.cli` imports lazily,
    # and the rest of the package runs on NumPy alone, so no scipy module loads.
    code = (
        "import sys, nfg, nfg.cli; "
        f"print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules, {ANY_SCIPY})"
    )
    assert _run(code) == "False False False"


def test_sweep_does_not_load_scipy(tmp_path):
    # The sweep runs the SSTS closed forms on NumPy arrays; nothing on that
    # path may pull SciPy back in.
    out = tmp_path / "figure1.csv"
    code = (
        "import sys, nfg.cli; "
        f"code = nfg.cli.main(['sweep', '--figure', '1', '--out', {str(out)!r}]); "
        f"print(code, {ANY_SCIPY})"
    )
    assert _run(code) == "0 False"
    assert out.stat().st_size > 0
