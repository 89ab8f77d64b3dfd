import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def test_import_does_not_load_scipy():
    # nfg runs on NumPy alone, the Fock oracle included, so importing the
    # package, its CLI and the oracle loads no scipy module.
    assert _run(f"import sys, nfg, nfg.cli, nfg.fock; print({ANY_SCIPY})") == "False"


def test_oracle_check_does_not_load_scipy():
    # The oracle's log-factorials are a NumPy running sum, not scipy.special.
    code = f"import sys, nfg.cli; code = nfg.cli.main(['oracle-check']); print(code, {ANY_SCIPY})"
    assert _run(code).splitlines()[-1] == "0 False"


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


def test_benchmark_workloads_reference_existing_names():
    # The benchmark's workloads reach nfg through attribute lookups on the
    # package and on its cli and fock modules.  No other test runs them, so
    # a renamed or deleted name would break the benchmark with every test
    # green.  The file is parsed, not imported or changed.
    modules = {"nfg": "nfg", "cli": "nfg.cli", "fock": "nfg.fock"}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {name for name, _ in refs} == set(modules)
    missing = [
        f"{name}.{attr}"
        for name, attr in sorted(refs)
        if not hasattr(importlib.import_module(modules[name]), attr)
    ]
    assert missing == []
