"""The benchmark's workloads: seeded inputs, the timed operation, its checks.

Every workload drives nfg through its public API only.  ``generate`` builds
all inputs from the seed before timing starts; ``op`` is one closed-loop
request and returns what the program produced; ``check`` verifies that
output and returns the names of the checks it failed.  Each call into nfg
goes through ``tracer.call`` so a traced run records one span per call; an
untraced run passes a tracer whose ``call`` is a plain call.

``decompose`` (traced runs only) repeats part of an op through lower-level
public functions, so per-layer times can be split where one public call
hides another (CSV formatting inside ``cli sweep``, report formatting inside
``cli oracle-check``).  It runs outside the op's span and its timing.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg as la

import nfg
from nfg import cli, fock
import calibration
from tracing import NULL

HALF_PI = np.pi / 2
_Z = np.diag([1.0, -1.0])


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _squeezer(r: float) -> np.ndarray:
    return np.diag([np.exp(-r), np.exp(r)])


def _two_mode_squeezer(r: float) -> np.ndarray:
    ch, sh = np.cosh(r), np.sinh(r)
    return np.block([[ch * np.eye(2), sh * _Z], [sh * _Z, ch * np.eye(2)]])


def _beam_splitter(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


def _random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.4) -> np.ndarray:
    """Symplectic matrix exp(Delta H) for a random symmetric H."""
    h = scale * rng.normal(size=(2 * n, 2 * n))
    return la.expm(nfg.symplectic_form(n) @ (0.5 * (h + h.T)))


def _symmetrized(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + g.T)


# --- two_mode_stream -----------------------------------------------------------


@dataclass(frozen=True)
class TwoModeInput:
    cm: np.ndarray  # 4x4 covariance matrix, A = mode 0
    k: np.ndarray  # single-mode channel on B
    m_noise: np.ndarray


def _two_mode_input(rng: np.random.Generator) -> TwoModeInput:
    """Local squeezers/rotations . two-mode squeezer . beam splitter applied
    to a thermal Williamson spectrum; n_bar log-uniform over 1e-3..1e5."""
    n_bar = 10.0 ** rng.uniform(-3.0, 5.0, 2)
    thermal = np.diag(np.repeat(1.0 + 2.0 * n_bar, 2))
    local = [
        _rotation(rng.uniform(0, 2 * np.pi)) @ _squeezer(rng.uniform(0.0, 0.5))
        @ _rotation(rng.uniform(0, 2 * np.pi))
        for _ in range(2)
    ]
    s = la.block_diag(*local) @ _two_mode_squeezer(rng.uniform(0.0, 1.0)) @ _beam_splitter(
        rng.uniform(0.0, HALF_PI)
    )
    # Channel: det M >= (det K - 1)^2 with a margin, plus extra added noise.
    k = rng.normal(size=(2, 2))
    r = rng.normal(size=(2, 2))
    m0 = r @ r.T + 1e-3 * np.eye(2)
    lam = (1.05 + rng.uniform()) * abs(np.linalg.det(k) - 1.0) / np.sqrt(np.linalg.det(m0))
    return TwoModeInput(_symmetrized(s @ thermal @ s.T), k, (lam + 0.1 * rng.uniform()) * m0)


def _rotate_a(state: nfg.GaussianState, s_a: np.ndarray) -> nfg.GaussianState:
    """pi/2 rotation of A in its standard-form frame, applied to the state."""
    u = nfg.GaussianUnitary(np.linalg.solve(s_a, _rotation(HALF_PI) @ s_a))
    return nfg.apply_gaussian_unitary(state, u, "A")


@dataclass(frozen=True)
class TwoModeOutput:
    value: float
    bound: float
    rotated_c2: float
    monotonic: bool
    after: float
    after_closed: float


def two_mode_op(inp: TwoModeInput, t) -> TwoModeOutput:
    state = t.call("states.construct", nfg.GaussianState, inp.cm, 1, 1)
    value = t.call("correlation.two_mode", nfg.nfg_two_mode, state).value
    bound = t.call("correlation.upper_bound", nfg.nfg_upper_bound, state)
    params, s_a, s_b = t.call("states.standard_form", nfg.standard_form, state)
    rotated = t.call("states.apply_unitary", _rotate_a, state, s_a)
    c2 = t.call("overlap.c_squared", nfg.c_squared, state, rotated)
    ch = t.call("correlation.channel", nfg.GaussianChannel, inp.k, inp.m_noise)
    report = t.call("correlation.monotonicity", nfg.check_monotonicity, state, ch)
    # The channel conjugated into the standard-form frame, as `nfg channel
    # --compare-closed` does.
    frame = t.call(
        "correlation.channel",
        nfg.GaussianChannel,
        s_b @ inp.k @ np.linalg.inv(s_b),
        s_b @ inp.m_noise @ s_b.T,
    )
    closed = t.call(
        "correlation.channel_closed_form", nfg.nfg_after_channel_closed_form, params, frame
    )
    return TwoModeOutput(value, bound, c2, report.holds, report.after, closed.value)


def two_mode_check(inp: TwoModeInput, out: TwoModeOutput, t) -> list[str]:
    failed = []
    if not abs(out.rotated_c2 - out.value) <= 1e-9 * abs(out.value):
        failed.append("c_squared at pi/2 != closed form")
    if not out.bound >= out.value:
        failed.append("upper bound below value")
    if not out.monotonic:
        failed.append("monotonicity violated")
    if not abs(out.after_closed - out.after) <= 1e-9:
        failed.append("post-channel closed form != apply-then-compute")
    return failed


# --- multimode_search ----------------------------------------------------------

#: One cycle of generated states: (n_a, n_b, planted degenerate A spectrum).
_MULTIMODE_CYCLE = [(2, 1, False), (2, 2, False), (2, 1, False), (2, 2, True)]


@dataclass(frozen=True)
class MultimodeInput:
    cm: np.ndarray
    n_a: int
    n_b: int
    planted: bool  # A block has a degenerate symplectic spectrum


def _random_cm(rng: np.random.Generator, n: int) -> np.ndarray:
    nus = rng.uniform(1.0, 3.0, n)
    s = _random_symplectic(rng, n)
    return _symmetrized(s @ np.diag(np.repeat(nus, 2)) @ s.T)


def _interleaved_tmsv_pairs(rng: np.random.Generator) -> np.ndarray:
    """Two TMSV pairs of equal squeezing, A = (a1, a2), B = (b1, b2), under
    random local symplectics: the A spectrum is cosh(2r) twice."""
    r = rng.uniform(0.3, 1.0)
    g = np.zeros((8, 8))
    for i in range(2):
        a, b = slice(2 * i, 2 * i + 2), slice(4 + 2 * i, 6 + 2 * i)
        g[a, a] = g[b, b] = np.cosh(2 * r) * np.eye(2)
        g[a, b] = g[b, a] = np.sinh(2 * r) * _Z
    s = la.block_diag(_random_symplectic(rng, 2), _random_symplectic(rng, 2))
    return _symmetrized(s @ g @ s.T)


def _multimode_input(rng: np.random.Generator, i: int) -> MultimodeInput:
    n_a, n_b, planted = _MULTIMODE_CYCLE[i % len(_MULTIMODE_CYCLE)]
    cm = _interleaved_tmsv_pairs(rng) if planted else _random_cm(rng, n_a + n_b)
    return MultimodeInput(cm, n_a, n_b, planted)


@dataclass(frozen=True)
class MultimodeOutput:
    state: nfg.GaussianState
    result: nfg.NfgResult
    bound: float


def multimode_op(inp: MultimodeInput, t) -> MultimodeOutput:
    state = t.call("states.construct", nfg.GaussianState, inp.cm, inp.n_a, inp.n_b)
    result = t.call("correlation.numeric", nfg.nfg_numeric, state)
    bound = t.call("correlation.upper_bound", nfg.nfg_upper_bound, state)
    return MultimodeOutput(state, result, bound)


def _rotate_a_williamson(
    state: nfg.GaussianState, s: np.ndarray, thetas: np.ndarray
) -> nfg.GaussianState:
    """Rotate the A modes by `thetas` in the Williamson frame `s` of A."""
    rot = la.block_diag(*[_rotation(th) for th in thetas])
    u = nfg.GaussianUnitary(np.linalg.solve(s, rot @ s))
    return nfg.apply_gaussian_unitary(state, u, "A")


def multimode_check(inp: MultimodeInput, out: MultimodeOutput, t) -> list[str]:
    failed = []
    value = out.result.value
    if not value <= out.bound:
        failed.append("numeric value above upper bound")
    ka = 2 * inp.n_a
    dec = t.call("states.williamson", nfg.williamson, out.state.cm[:ka, :ka])
    rotated = t.call(
        "states.apply_unitary", _rotate_a_williamson, out.state, dec.s, out.result.optimizer_theta
    )
    c2 = t.call("overlap.c_squared", nfg.c_squared, out.state, rotated)
    if not abs(c2 - value) <= 1e-9:
        failed.append("c_squared at optimizer_theta != value")
    if out.result.lower_bound_only != inp.planted:
        failed.append("lower_bound_only not set exactly on planted states")
    t.add("correlation.lower_bound_only_count", int(out.result.lower_bound_only))
    return failed


# --- ssts_sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    grid: nfg.SweepGrid
    sample_rows: np.ndarray  # rows re-derived bit for bit from the closed forms
    out_path: str  # the CSV the op writes

    def argv(self) -> list[str]:
        g = self.grid
        return [
            "sweep",
            "--n-bar-min", repr(g.n_bar_min), "--n-bar-max", repr(g.n_bar_max),
            "--n-bar-steps", str(g.n_bar_steps),
            "--mu-min", repr(g.mu_min), "--mu-max", repr(g.mu_max),
            "--mu-steps", str(g.mu_steps),
            "--out", self.out_path,
        ]  # fmt: skip


def _sweep_input(rng: np.random.Generator, i: int, steps: int, work_dir: str) -> SweepInput:
    """Alternates the paper's two regimes, n_bar in [0, 50] and in
    [1e5, 1e5 + 500], each range stretched by a seeded few percent."""
    if i % 2 == 0:
        lo, hi = 0.0, 50.0 * (1.0 + 0.05 * rng.uniform())
    else:
        lo, hi = 1e5, 1e5 + 500.0 * (1.0 + 0.05 * rng.uniform())
    grid = nfg.SweepGrid(lo, hi, steps, 0.0, 1.0, steps)
    rows = rng.choice(steps * steps, size=min(64, steps * steps), replace=False)
    return SweepInput(grid, np.sort(rows), os.path.join(work_dir, "sweep.csv"))


def sweep_op(inp: SweepInput, t) -> int:
    return t.call("cli.sweep", cli.main, inp.argv())


def sweep_check(inp: SweepInput, code: int, t) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    with open(inp.out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failed = []
    if lines[0] != cli.CSV_HEADER:
        failed.append("CSV header")
    rows = lines[1:]
    if len(rows) != inp.grid.n_bar_steps * inp.grid.mu_steps:
        return failed + ["CSV row count"]
    table = np.array([row.split(",") for row in rows], dtype=float)
    n_bar, mu, value, dg, q = table[:, :5].T
    if not (np.all(value >= dg) and np.all(value >= q)):
        failed.append("nfg below dg or q")
    for i in inp.sample_rows:
        p = nfg.SstsParams(n_bar[i], mu[i])
        if (value[i], dg[i], q[i]) != (nfg.nfg_ssts(p), nfg.dg_ssts(p), nfg.q_ssts(p)):
            failed.append(f"row {i} does not round-trip")
            break
    return failed


def sweep_decompose(inp: SweepInput, t) -> None:
    t.call("families.sweep", nfg.sweep, inp.grid)


# --- fock_oracle ---------------------------------------------------------------

ORACLE_FAMILIES = ("thermal", "coherent", "squeezed", "tmsv")


@dataclass(frozen=True)
class OracleInput:
    families: tuple[str, ...]

    def argv(self) -> list[str]:
        return ["oracle-check", "--families", ",".join(self.families)]


@dataclass(frozen=True)
class OracleOutput:
    code: int
    report: str


def _oracle_check(argv: list[str]) -> OracleOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return OracleOutput(code, buf.getvalue())


def oracle_op(inp: OracleInput, t) -> OracleOutput:
    return t.call("cli.oracle_check", _oracle_check, inp.argv())


def oracle_check(inp: OracleInput, out: OracleOutput, t) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}"]
    last = out.report.strip().splitlines()[-1]
    prefix = "worst relative error: "
    if not last.startswith(prefix):
        return ["no worst-error line"]
    worst = float(last[len(prefix):].split()[0])
    return [] if worst < 1e-6 else [f"worst relative error {worst:.3g}"]


def _matrix_shape(family: str) -> tuple[int, int]:
    """(basis exponent, bytes per entry) of the family's density matrices,
    read off a cutoff-2 vacuum built by the public builder."""
    builders = {
        "thermal": fock.thermal_dm,
        "coherent": fock.coherent_dm,
        "squeezed": fock.squeezed_vacuum_dm,
        "tmsv": fock.two_mode_squeezed_dm,
    }
    e = builders[family](0.0, 2).entries
    return int(round(np.log2(e.shape[0]))), e.itemsize


def oracle_decompose(inp: OracleInput, t) -> None:
    """Per-family oracle time, the largest cutoff and the bytes of the dense
    matrices built (two per row, computed from the cutoff and dtype)."""
    dense_bytes = 0
    for family in inp.families:
        rows = t.call(f"fock.{family}", fock.oracle_rows, [family])
        exponent, itemsize = _matrix_shape(family)
        t.peak("fock.max_cutoff", max(r.cutoff for r in rows))
        dense_bytes += sum(2 * r.cutoff ** (2 * exponent) * itemsize for r in rows)
    t.peak("fock.dense_bytes_computed", dense_bytes)


# --- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    #: (rng, smoke, work_dir) -> inputs, cycled through by the runner
    generate: Callable[[np.random.Generator, bool, str], list]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], list[str]]
    #: items of work one op completes, for items_per_s
    items: Callable[[Any], int]
    #: small untimed op covering the same code paths (lazy set-up, first LAPACK calls)
    warmup: Callable[[str], Any]
    #: reference work its timings are normalized by (see calibration.py)
    reference: calibration.Reference
    decompose: Callable[[Any, Any], None] | None = None


def _two_mode_generate(rng, smoke, work_dir):
    return [_two_mode_input(rng) for _ in range(64 if smoke else 512)]


def _two_mode_warmup(work_dir):
    rng = np.random.default_rng(0)
    for _ in range(16):
        two_mode_op(_two_mode_input(rng), NULL)


def _multimode_generate(rng, smoke, work_dir):
    return [_multimode_input(rng, i) for i in range(4 if smoke else 64)]


def _multimode_warmup(work_dir):
    state = nfg.GaussianState(_random_cm(np.random.default_rng(0), 3), 2, 1)
    nfg.nfg_numeric(state, nfg.OptimizerConfig(grid_points=3, refine_iters=2, restarts=2))
    nfg.nfg_upper_bound(state)


def _sweep_generate(rng, smoke, work_dir):
    return [_sweep_input(rng, i, 21 if smoke else 101, work_dir) for i in range(8)]


def _sweep_warmup(work_dir):
    grid = nfg.SweepGrid(0.0, 1.0, 3, 0.0, 1.0, 3)
    sweep_op(SweepInput(grid, np.arange(9), os.path.join(work_dir, "warmup.csv")), NULL)


def _oracle_generate(rng, smoke, work_dir):
    # The oracle's cases are fixed by the program; the seed picks nothing.
    # A smoke run leaves out the two-mode family, whose matrices are large.
    return [OracleInput(ORACLE_FAMILIES[:3] if smoke else ORACLE_FAMILIES)]


WORKLOADS = {
    "two_mode_stream": Workload(
        _two_mode_generate,
        two_mode_op,
        two_mode_check,
        lambda inp: 1,
        _two_mode_warmup,
        calibration.REQUEST,
    ),
    "multimode_search": Workload(
        _multimode_generate,
        multimode_op,
        multimode_check,
        lambda inp: 1,
        _multimode_warmup,
        calibration.NUMERIC,
    ),
    "ssts_sweep": Workload(
        _sweep_generate,
        sweep_op,
        sweep_check,
        lambda inp: inp.grid.n_bar_steps * inp.grid.mu_steps,
        _sweep_warmup,
        calibration.SWEEP,
        sweep_decompose,
    ),
    "fock_oracle": Workload(
        _oracle_generate,
        oracle_op,
        oracle_check,
        lambda inp: 1,
        lambda work_dir: _oracle_check(["oracle-check", "--families", "thermal"]),
        calibration.DENSE,
        oracle_decompose,
    ),
}
