"""Hilbert-Schmidt overlaps, purity, and fidelity-style quantities for
Gaussian states.

For Gaussian states with covariance matrices V1, V2 and means d1, d2 the
trace overlap has the closed form

    tr(rho1 rho2) = det[(V1 + V2)/2]^{-1/2} * exp(-1/2 * delta^T [(V1+V2)/2]^{-1} delta),

with delta = d1 - d2.  All determinants are evaluated in log space through a
Cholesky factorization, so the routines stay finite well past the point where
det would overflow, and purity (the self overlap) reuses the same code path
bit for bit.  Up to 4 x 4, one-mode and (1+1)-mode states, the factorization
is `nfg.states._ldl`, the scalar LDL^T that also decides the Simon verdict,
so these overlaps run no `np.linalg` call; larger ones take NumPy's Cholesky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import _SCALAR_DIM, GaussianState, _cholesky, _ldl, _mid, _singular

__all__ = ["OverlapResult", "c_squared", "fidelity_f", "overlap", "purity"]


@dataclass(frozen=True)
class OverlapResult:
    """Trace overlap tr(rho sigma), with its natural logarithm alongside.

    ``log_value`` is exact even when ``value`` underflows to zero.
    """

    value: float
    log_value: float


_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))


def _clamp(value: float) -> float:
    return min(max(0.0, float(value)), _ONE_BELOW_1)  # max(0.0, -0.0) is +0.0


def _chol_logdet(m: np.ndarray):
    """Lower Cholesky factor L of a symmetric PD matrix and its log-determinant,
    2 sum log diag(L).

    The matrices passed here are physical covariance matrices or means of
    two; one singular at double precision raises `_cholesky`'s `ValueError`.
    """
    chol = _cholesky(_mid(m, m.T))
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _log_overlap(v1, d1, v2, d2) -> float:
    """log tr(rho1 rho2) from the covariance matrices and means (arrays).

    Up to `_SCALAR_DIM` rows it factors the lower triangle of the
    `_chol_logdet` matrix, with its roundings, by `_ldl` in float arithmetic:
    log det is the sum of the log pivots, and delta^T mid^{-1} delta the sum
    of z_i^2 / d_i with L z = delta by forward substitution.  A pivot that
    is not > 0 raises `_singular`'s `ValueError`, as `_cholesky` does.
    """
    if len(v1) > _SCALAR_DIM:
        chol, logdet = _chol_logdet(_mid(v1, v2))
        log = -0.5 * logdet
        delta = d1 - d2
        if delta.any():
            z = np.linalg.solve(chol, delta)  # delta^T mid^{-1} delta = z.z
            log -= 0.5 * float(z @ z)
        return log
    m = [[_mid(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(v1.tolist(), v2.tolist())]
    triangle = [[_mid(x, m[j][i]) for j, x in enumerate(row[: i + 1])] for i, row in enumerate(m)]
    factor = _ldl(triangle, 0.0)
    if factor is None:
        raise _singular()
    lower, pivots = factor
    logdet = 0.0
    for d in pivots:  # a plain loop: sum() compensates from Python 3.12 on
        logdet += math.log(d)
    log = -0.5 * logdet
    delta = [x - y for x, y in zip(d1.tolist(), d2.tolist())]
    if any(delta):
        quad, z = 0.0, []
        for l_row, d, x in zip(lower, pivots, delta):
            for l_ij, z_j in zip(l_row, z):
                x -= l_ij * z_j
            z.append(x)
            quad += x * x / d
        log -= 0.5 * quad
    return log


def overlap(rho: GaussianState, sigma: GaussianState) -> OverlapResult:
    """Trace overlap tr(rho sigma) of two Gaussian states on equal mode counts."""
    if rho.cm.shape != sigma.cm.shape:
        raise ValueError("states live on different mode counts")
    log = _log_overlap(rho.cm, rho.mean, sigma.cm, sigma.mean)
    return OverlapResult(float(np.exp(log)), log)


def purity(state: GaussianState) -> float:
    """tr(rho^2) = det(Gamma)^{-1/2}; equals overlap(state, state).value exactly."""
    return overlap(state, state).value


def fidelity_f(rho: GaussianState, sigma: GaussianState) -> float:
    """Overlap-based fidelity tr(rho sigma) / sqrt(tr rho^2 * tr sigma^2).

    Lies in (0, 1] with equality iff rho = sigma (Cauchy-Schwarz); symmetric
    in its arguments.  Evaluated as a single exponential of log quantities so
    it stays accurate when the individual traces underflow.
    """
    if rho.cm.shape != sigma.cm.shape:
        raise ValueError("states live on different mode counts")
    log_cross = _log_overlap(rho.cm, rho.mean, sigma.cm, sigma.mean)
    log_p1 = _log_overlap(rho.cm, rho.mean, rho.cm, rho.mean)
    log_p2 = _log_overlap(sigma.cm, sigma.mean, sigma.cm, sigma.mean)
    return float(np.exp(log_cross - 0.5 * (log_p1 + log_p2)))


def c_squared(rho: GaussianState, sigma: GaussianState) -> float:
    """Squared overlap distance 1 - F^2 in [0, 1).

    Strictly below 1 for Gaussian states (their overlap never vanishes), so
    the result is clamped into [0, 1): tiny negative round-off from F ~ 1
    maps to zero, and F underflowing to zero maps to the float just below 1.
    """
    f = fidelity_f(rho, sigma)
    return _clamp(1.0 - f * f)
