"""Hilbert-Schmidt overlaps, purity, and fidelity-style quantities for
Gaussian states.

For Gaussian states with covariance matrices V1, V2 and means d1, d2 the
trace overlap has the closed form

    tr(rho1 rho2) = det[(V1 + V2)/2]^{-1/2} * exp(-1/2 * delta^T [(V1+V2)/2]^{-1} delta),

with delta = d1 - d2.  All determinants are evaluated in log space through a
Cholesky factorization, so the routines stay finite well past the point where
det would overflow, and purity (the self overlap) reuses the same code path
bit for bit.  At every size the factorization is `nfg.states._ldl`, the
scalar LDL^T that also decides the Simon verdict, so no overlap runs an
`np.linalg` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _ldl, _mid, _singular

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
    """``value`` clamped into [0, 1); a NaN, which max() would turn into 0.0
    and so into an uncorrelated reading, raises `ValueError`."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("the computed value is NaN (an overflow or invalid operation)")
    return min(max(0.0, value), _ONE_BELOW_1)  # max(0.0, -0.0) is +0.0


def _log_overlap(v1, d1, v2, d2) -> float:
    """log tr(rho1 rho2) from the covariance matrices and means (arrays).

    It factors the symmetric part of mid = (V1 + V2)/2 by `_ldl` in float
    arithmetic: log det is the sum of the log pivots, and delta^T mid^{-1}
    delta the sum of z_i^2 / d_i with L z = delta by forward substitution.
    A pivot that is not > 0, a matrix singular at double precision, raises
    `_singular`'s `ValueError`.
    """
    m = _mid(v1, v2)
    factor = _ldl(_mid(m, m.T).tolist(), 0.0)
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
