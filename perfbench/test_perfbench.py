"""Tests of the benchmark itself: output contract, checks, seeding, tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._cap_threads()
nfg = run._import_nfg()

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.05",
                "--trace", trace, "--smoke")  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    env = json.loads(lines[-2])["env"]
    assert env["seed"] == 3 and env["blas_threads"] <= env["nproc"]
    assert {"python", "numpy", "scipy", "commit"} <= set(env)


def test_corrupted_result_counts_as_failed(monkeypatch):
    """A wrong value from the program fails its op instead of passing."""
    real = nfg.nfg_two_mode

    def off_by_a_little(state):
        res = real(state)
        return dataclasses.replace(res, value=res.value * (1 + 1e-6))

    monkeypatch.setattr(nfg, "nfg_two_mode", off_by_a_little)
    w = WORKLOADS["two_mode_stream"]
    inputs = w.generate(np.random.default_rng(0), True, "")
    op_ns, _, _, attempted, failed = run._measure(
        w, inputs, 0.0, _NoCalibration(), tracing.Tracer(), False
    )
    assert attempted == failed == 1 and op_ns == []


class _NoCalibration:
    def timed(self, fn, *args):
        return fn(*args), 0, 0


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def _one(name, work_dir):
    w = WORKLOADS[name]
    inp = w.generate(np.random.default_rng(5), True, work_dir)[0]
    return w, inp, w.op(inp, tracing.NULL)


def test_checks_reject_corrupted_two_mode_output(work_dir):
    w, inp, out = _one("two_mode_stream", work_dir)
    assert w.check(inp, out, tracing.NULL) == []
    for field, value in [
        ("rotated_c2", out.value * (1 + 1e-8)),
        ("bound", out.value * (1 - 1e-8)),
        ("monotonic", False),
        ("after_closed", out.after + 1e-8),
    ]:
        assert w.check(inp, dataclasses.replace(out, **{field: value}), tracing.NULL)


def test_checks_reject_corrupted_numeric_output(work_dir):
    w, inp, out = _one("multimode_search", work_dir)
    assert w.check(inp, out, tracing.NULL) == []
    flipped = dataclasses.replace(out.result, lower_bound_only=not out.result.lower_bound_only)
    assert w.check(inp, dataclasses.replace(out, result=flipped), tracing.NULL)
    shifted = dataclasses.replace(out.result, value=out.result.value - 1e-6)
    assert w.check(inp, dataclasses.replace(out, result=shifted), tracing.NULL)


def test_checks_reject_corrupted_sweep_csv(work_dir):
    w, inp, code = _one("ssts_sweep", work_dir)
    assert w.check(inp, code, tracing.NULL) == []
    path = Path(inp.out_path)
    lines = path.read_text().splitlines()
    row = inp.sample_rows[0] + 1
    fields = lines[row].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15) + 1e-300)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert w.check(inp, code, tracing.NULL)
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert w.check(inp, code, tracing.NULL)


def test_checks_reject_failed_oracle():
    w = WORKLOADS["fock_oracle"]
    inp = workloads.OracleInput(("thermal",))
    bad = workloads.OracleOutput(0, "case ...\nworst relative error: 0.002 (FAIL)\n")
    assert w.check(inp, bad, tracing.NULL)
    assert w.check(inp, workloads.OracleOutput(1, ""), tracing.NULL)


def test_inputs_follow_the_seed(work_dir):
    for name, w in WORKLOADS.items():
        a = w.generate(np.random.default_rng(1), True, work_dir)
        b = w.generate(np.random.default_rng(1), True, work_dir)
        assert repr(a) == repr(b), name
    gen = WORKLOADS["two_mode_stream"].generate
    assert repr(gen(np.random.default_rng(1), True, "")) != repr(
        gen(np.random.default_rng(2), True, "")
    )


def test_planted_states_are_the_degenerate_ones():
    inputs = WORKLOADS["multimode_search"].generate(np.random.default_rng(0), True, "")
    for inp in inputs:
        ka = 2 * inp.n_a
        assert nfg.williamson(inp.cm[:ka, :ka]).degeneracy_flag == inp.planted


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.op_id = 0
    t.call("op", lambda: t.call("states.construct", lambda: sum(range(10_000))))
    op, child = t.spans
    assert child.parent == 0
    assert t.self_ns() == [op.duration_ns - child.duration_ns, child.duration_ns]


def test_fails_without_the_program_sources(tmp_path):
    """A directory holding only the benchmark must not produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "two_mode_stream", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
