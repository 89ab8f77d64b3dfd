import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


#: How the benchmark's files name nfg, its cli and its fock module.
BENCHMARK_MODULES = {"nfg": "nfg", "cli": "nfg.cli", "fock": "nfg.fock"}


def _benchmark_trees() -> list[ast.AST]:
    """Every Python file of the benchmark, parsed, not imported."""
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    assert {"run.py", "workloads.py", "test_perfbench.py"} <= {p.name for p in paths}
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _benchmark_ref(node) -> tuple[str, str] | None:
    """``(module, attr)`` when ``node`` is ``nfg.attr``, ``cli.attr`` or
    ``fock.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in BENCHMARK_MODULES
    ):
        return node.value.id, node.attr
    return None


def _benchmark_object(ref: tuple[str, str]):
    module, attr = ref
    return getattr(importlib.import_module(BENCHMARK_MODULES[module]), attr)


def test_benchmark_workloads_reference_existing_names():
    # The benchmark reaches nfg through attribute lookups on the package and
    # on its cli and fock modules.  No other test runs its workloads, so a
    # renamed or deleted name would break the benchmark with every test
    # green.  The files are parsed, not imported or changed.
    refs = {ref for tree in _benchmark_trees() for ref in map(_benchmark_ref, ast.walk(tree)) if ref}
    assert {module for module, _ in refs} == set(BENCHMARK_MODULES)
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(refs)
        if not hasattr(importlib.import_module(BENCHMARK_MODULES[module]), attr)
    ]
    assert missing == []


def test_benchmark_imports_existing_names():
    # ``from nfg import cli, fock`` and the like: each imported name must
    # exist in the module the benchmark imports it from.
    imports = [
        (node.module, alias.name)
        for tree in _benchmark_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nfg"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []


def test_benchmark_calls_bind_to_the_signatures():
    # Each call the benchmark makes, directly or through its tracer's
    # ``t.call(name, fn, *args)``, must bind its positional count and keyword
    # names to the callee's signature, so a removed field or option, or one
    # made keyword-only, fails here.  Calls with * or ** are skipped.
    bound, unbound = set(), []
    for tree in _benchmark_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            ref, args = _benchmark_ref(node.func), node.args
            if ref is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call":
                ref, args = (_benchmark_ref(args[1]), args[2:]) if len(args) > 1 else (None, [])
            if ref is None:
                continue
            keywords = [k.arg for k in node.keywords]
            if None in keywords or any(isinstance(a, ast.Starred) for a in args):
                continue
            try:
                inspect.signature(_benchmark_object(ref)).bind(*args, **dict.fromkeys(keywords))
            except TypeError as exc:
                unbound.append(f"line {node.lineno}: {'.'.join(ref)}: {exc}")
            bound.add(ref[1])
    assert unbound == []
    # the forms above are all seen: direct, with keywords, through t.call
    assert {"OptimizerConfig", "apply_gaussian_unitary", "oracle_rows", "main"} <= bound


def test_state_and_optimizer_fields():
    # A state is its matrix, partition and mean; `OptimizerConfig` keeps the
    # three fields the benchmark's warm-up sets.
    state_attrs = {name for name in vars(nfg.GaussianState) if not name.startswith("_")}
    fields = [f.name for f in dataclasses.fields(nfg.GaussianState)]
    assert fields == ["cm", "n_a", "n_b", "mean"] and state_attrs <= set(fields)
    assert [f.name for f in dataclasses.fields(nfg.OptimizerConfig)] == [
        "grid_points",
        "refine_iters",
        "restarts",
    ]


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
    "ValidationReport",
    "WilliamsonDecomposition",
    "apply_channel",
    "apply_gaussian_unitary",
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
