"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent within seconds, and by up to twice between sessions, with no change
to the code.  So fixed reference work that does not touch nfg runs after
every timed interval, for a set share of that interval, and the run's times
are rescaled to a host where one reference unit takes its nominal time:

    normalized = measured * nominal unit time / (mean unit time nearby)

A single op is rescaled by the blocks just before and after it; a total
over the run by the mean over the whole run, which samples the same stretch
of time as the ops.  A change to nfg moves the measured times and not the
reference; a change of host speed moves both.  Different kinds of work
slow down by different factors on a busy host, so each workload names a
reference with the shape of its own work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as la

#: Reference work run after each timed interval, as a share of it.
SHARE = 0.2

_M = np.array(
    [[3.0, 0.2, 0.5, 0.0], [0.2, 2.0, 0.0, -0.4], [0.5, 0.0, 2.5, 0.1], [0.0, -0.4, 0.1, 1.5]]
)
_J = la.block_diag(*([np.array([[0.0, 1.0], [-1.0, 0.0]])] * 2))
_G = np.array(
    [
        [2.0, 0.3, 0.4, 0.0, 0.5, 0.1],
        [0.3, 1.8, 0.0, 0.2, 0.0, -0.4],
        [0.4, 0.0, 2.2, 0.1, 0.3, 0.0],
        [0.0, 0.2, 0.1, 1.6, 0.0, 0.2],
        [0.5, 0.0, 0.3, 0.0, 2.5, 0.1],
        [0.1, -0.4, 0.0, 0.2, 0.1, 1.9],
    ]
)
_V = np.linspace(0.0, 1.0, 1500)


@dataclass(frozen=True)
class _Checked:
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("bad matrix")
        object.__setattr__(self, "m", m)


def _request_work() -> float:
    """A validated frozen dataclass, small eigen, Cholesky and SVD solves and
    an expm1: the shape of a (1+1) request, and of importing and generating
    inputs."""
    acc = 0.0
    for _ in range(3):
        g = _Checked(0.5 * (_M + _M.T)).m
        acc += float(np.sort(np.abs(np.linalg.eigvals(_J @ g)))[0])
        acc += float(np.linalg.eigvalsh(g)[0])
        cf = la.cho_factor(g, lower=True, check_finite=False)
        acc += 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        acc += float(la.cho_solve(cf, g[:, :2], check_finite=False)[0, 0])
        u, sig, _ = np.linalg.svd(g[:2, 2:])
        acc += float(np.linalg.det(u)) * float(sig[0])
        acc += float(np.expm1(-float(np.abs(g - g.T).max()) - 1e-3))
        for j in range(20):
            eps = 1.0 / (1.0 + 2.0 * j) ** 2
            acc += eps * (1.0 - eps) / (2.0 - eps)
        acc += len(f"{acc:.17g}")
    return acc


def _logdet(m: np.ndarray) -> float:
    cf = la.cholesky(0.5 * (m + m.T), lower=True, check_finite=False)
    return 2.0 * float(np.sum(np.log(np.diag(cf))))


def _numeric_work() -> float:
    """Rotation blocks and three Cholesky log-determinants per angle: the
    shape of the numeric search's objective."""
    acc = 0.0
    for t in np.linspace(0.0, 1.5, 8):
        rot = [np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]]) for a in (t, 0.5 * t)]
        s = la.block_diag(*rot, np.eye(2))
        gs = s @ _G @ s.T
        acc -= float(np.expm1(0.5 * (_logdet(_G) + _logdet(gs)) - _logdet(0.5 * (_G + gs))))
    return acc


@dataclass(frozen=True)
class _Point:
    n: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.n) and self.n >= 0.0 and 0.0 <= self.mu <= 1.0):
            raise ValueError("bad point")


def _sweep_work() -> float:
    """Validated points, scalar closed-form arithmetic and 17-digit CSV
    lines: the shape of a sweep."""
    lines = []
    for i in range(100):
        p = _Point(0.5 * i, (i % 50) / 49.0)
        t = 1.0 + 2.0 * p.n
        eps = 1.0 / (t * t)
        u = p.mu * p.mu
        us = u * (1.0 - eps)
        big_p = (1.0 - p.mu) * (1.0 + p.mu) + u * eps
        q = 1.0 - 0.5 * us
        a = us * (big_p + q) / (2.0 * q * q)
        b = 6.0 * us * eps / (big_p * (2.0 + np.sqrt(4.0 - 3.0 * u)) + 1.0)
        lines.append(",".join(f"{float(v):.17g}" for v in (p.n, p.mu, a, b, a - b)))
    return float(len("\n".join(lines)))


def _dense_work() -> float:
    """A fresh 18 MB dense matrix, a transposed pass and a contraction: the
    shape of the Fock oracle."""
    m = np.outer(_V, _V)
    return float(np.abs(m - m.T).max()) + float(np.einsum("ij,ji->", m, m))


@dataclass(frozen=True)
class Reference:
    work: Callable[[], float]
    #: Unit time that defines the normalized clock: about the unit's median
    #: time on the 2-vCPU Xeon host the bounds were set on.
    nominal_ns: float


REQUEST = Reference(_request_work, 350_000)
NUMERIC = Reference(_numeric_work, 2_000_000)
SWEEP = Reference(_sweep_work, 1_000_000)
DENSE = Reference(_dense_work, 37_000_000)


class Calibration:
    """Reference-unit timings taken between the timed intervals of a run."""

    def __init__(self, reference: Reference):
        self.reference = reference
        for _ in range(3):  # first calls pay one-off costs
            reference.work()
        self.ref_ns = 0
        self.units = 0
        self.last_unit_ns = float(reference.nominal_ns)
        self.measure(5 * reference.nominal_ns / SHARE)

    def measure(self, covered_ns: float) -> float:
        """Run reference units for SHARE of `covered_ns` (at least one);
        return their mean time."""
        k = max(1, math.ceil(SHARE * covered_ns / self.last_unit_ns))
        t0 = time.perf_counter_ns()
        for _ in range(k):
            self.reference.work()
        dt = time.perf_counter_ns() - t0
        self.ref_ns += dt
        self.units += k
        self.last_unit_ns = dt / k
        return self.last_unit_ns

    def timed(self, fn, *args):
        """Call fn(*args), then calibrate.  Returns (result, measured ns, ns
        rescaled by the reference blocks just before and after the call)."""
        before = self.last_unit_ns
        t0 = time.perf_counter_ns()
        result = fn(*args)
        dt = time.perf_counter_ns() - t0
        after = self.measure(dt)
        return result, dt, dt * self.reference.nominal_ns * 2.0 / (before + after)

    @property
    def unit_ns(self) -> float:
        return self.ref_ns / self.units

    def normalized(self, ns: float) -> float:
        """`ns` spread over the run, rescaled by the run's mean unit time."""
        return ns * self.reference.nominal_ns / self.unit_ns
