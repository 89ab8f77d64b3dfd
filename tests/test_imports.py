import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import nfg

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


#: `nfg.__all__` when it was still written out by hand, name by name.
PUBLIC_NAMES = [
    "GaussianChannel",
    "GaussianState",
    "GaussianUnitary",
    "MonotonicityReport",
    "NfgResult",
    "OptimizerConfig",
    "OverlapResult",
    "SstsParams",
    "StandardFormParams",
    "SweepGrid",
    "SweepRow",
    "ValidationReport",
    "WilliamsonDecomposition",
    "apply_channel",
    "apply_gaussian_unitary",
    "blocks",
    "c_squared",
    "check_monotonicity",
    "dg_ssts",
    "fidelity_f",
    "is_symplectic",
    "nfg_after_channel_closed_form",
    "nfg_closed_form",
    "nfg_numeric",
    "nfg_ssts",
    "nfg_ssts_limit",
    "nfg_two_mode",
    "nfg_upper_bound",
    "overlap",
    "purity",
    "q_ssts",
    "ssts",
    "standard_form",
    "state_from_params",
    "sweep",
    "symplectic_form",
    "tmsv",
    "validate_cm",
    "williamson",
]


def test_public_names_are_the_module_lists():
    # nfg republishes the __all__ of four modules: the same names in the same
    # order, each bound to its module's own object, each from one module.
    modules = [sys.modules[f"nfg.{m}"] for m in ("states", "overlap", "correlation", "families")]
    owner = {name: module for module in modules for name in module.__all__}
    assert nfg.__all__ == PUBLIC_NAMES
    assert sum(len(module.__all__) for module in modules) == len(PUBLIC_NAMES)
    assert sorted(owner) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nfg, name) is getattr(owner[name], name), name


def test_overlap_is_the_function_not_the_module():
    # `nfg.overlap` is both a submodule and a public function; the function
    # wins whichever module is imported first.
    assert not isinstance(nfg.overlap, types.ModuleType)
    assert nfg.overlap is sys.modules["nfg.overlap"].overlap
    code = "import nfg.overlap, nfg.cli, nfg.fock, nfg; print(type(nfg.overlap).__name__)"
    assert _run(code) == "function"
