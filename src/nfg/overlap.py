"""Hilbert-Schmidt overlaps, purity, and fidelity-style quantities for
Gaussian states.

For Gaussian states with covariance matrices V1, V2 and means d1, d2 the
trace overlap has the closed form

    tr(rho1 rho2) = det[(V1 + V2)/2]^{-1/2} * exp(-1/2 * delta^T [(V1+V2)/2]^{-1} delta),

with delta = d1 - d2.  All determinants are evaluated in log space through a
Cholesky factorization, so the routines stay finite well past the point where
det would overflow, and purity (the self overlap) reuses the same code path
bit for bit.  The factorization is the Simon verdict's at the same size.  Up
to 4 rows `nfg.states._ldl_4` factors the lower triangle of sym((V1 + V2)/2),
built in Python floats from the rows each `GaussianState` keeps from its
checks (`_mid_lower`) by `nfg.states._mid`'s operations, and the last step
is libm's ``exp``.  So no such overlap runs NumPy arithmetic: the bits depend
only on IEEE double arithmetic and the C library.  Beyond 4 rows
`nfg.states._cholesky_factor` (LAPACK) factors the array midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _cholesky_factor, _ldl_4, _mid, _singular

__all__ = ["OverlapResult", "c_squared", "fidelity_f", "overlap", "purity"]


@dataclass(frozen=True)
class OverlapResult:
    """Trace overlap tr(rho sigma), with its natural logarithm alongside.

    ``log_value`` is exact even when ``value`` underflows to zero.
    """

    value: float
    log_value: float


_ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def _clamp(value: float) -> float:
    """``value`` clamped into [0, 1); a NaN, which max() would turn into 0.0
    and so into an uncorrelated reading, raises `ValueError`."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("the computed value is NaN (an overflow or invalid operation)")
    return min(max(0.0, value), _ONE_BELOW_1)  # max(0.0, -0.0) is +0.0


def _mid_lower(v1: list[list[float]], v2: list[list[float]]) -> tuple[tuple[float, ...], ...]:
    """The lower triangle of the symmetric part of m = (V1 + V2)/2, for
    covariance matrices of 2 or 4 rows given as nested lists: entry (i, j),
    j <= i, of `nfg.states._mid`(m, m^T) with m = `_mid`(V1, V2), by the
    same operations in the same order, so with the same bits.  `_ldl_4`
    reads only this triangle."""
    if len(v1) == 2:
        (a00, a01), (a10, a11) = v1
        (b00, b01), (b10, b11) = v2
        m00, m11 = 0.5 * a00 + 0.5 * b00, 0.5 * a11 + 0.5 * b11
        m10 = 0.5 * (0.5 * a10 + 0.5 * b10) + 0.5 * (0.5 * a01 + 0.5 * b01)
        return (0.5 * m00 + 0.5 * m00,), (m10, 0.5 * m11 + 0.5 * m11)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = v1
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = v2
    m00, m11 = 0.5 * a00 + 0.5 * b00, 0.5 * a11 + 0.5 * b11
    m22, m33 = 0.5 * a22 + 0.5 * b22, 0.5 * a33 + 0.5 * b33
    return (
        (0.5 * m00 + 0.5 * m00,),
        (0.5 * (0.5 * a10 + 0.5 * b10) + 0.5 * (0.5 * a01 + 0.5 * b01), 0.5 * m11 + 0.5 * m11),
        (
            0.5 * (0.5 * a20 + 0.5 * b20) + 0.5 * (0.5 * a02 + 0.5 * b02),
            0.5 * (0.5 * a21 + 0.5 * b21) + 0.5 * (0.5 * a12 + 0.5 * b12),
            0.5 * m22 + 0.5 * m22,
        ),
        (
            0.5 * (0.5 * a30 + 0.5 * b30) + 0.5 * (0.5 * a03 + 0.5 * b03),
            0.5 * (0.5 * a31 + 0.5 * b31) + 0.5 * (0.5 * a13 + 0.5 * b13),
            0.5 * (0.5 * a32 + 0.5 * b32) + 0.5 * (0.5 * a23 + 0.5 * b23),
            0.5 * m33 + 0.5 * m33,
        ),
    )


def _log_overlap(rho: GaussianState, sigma: GaussianState) -> float:
    """log tr(rho sigma): -1/2 log det mid less 1/2 delta^T mid^{-1} delta,
    from a Cholesky factor of mid = sym((V1 + V2)/2); one mean, as in a self
    overlap, gives delta = 0.  Up to 4 rows `_ldl_4` factors `_mid_lower` in
    floats, and L z = delta is forward substitution on the mean entries;
    beyond, `_cholesky_factor` and one solve.  A factorization that fails, a
    matrix singular at double precision, raises `_singular`'s `ValueError`."""
    if len(rho._rows) > 4:
        m = _mid(rho.cm, sigma.cm)
        chol = _cholesky_factor(_mid(m, m.T), 0.0)
        if chol is None:
            raise _singular()
        log = 0.0
        for l_ii in chol.diagonal().tolist():  # libm's log, as below
            log -= math.log(l_ii)
        if rho.mean is sigma.mean:
            return log
        delta = rho.mean - sigma.mean
        if delta.any():
            z = np.linalg.solve(chol, delta)
            log -= 0.5 * float(z @ z)
        return log
    factor = _ldl_4(_mid_lower(rho._rows, sigma._rows), 0.0)
    if factor is None:
        raise _singular()
    lower, pivots = factor
    logdet = 0.0
    for d in pivots:  # a plain loop: sum() compensates from Python 3.12 on
        logdet += math.log(d)
    log = -0.5 * logdet
    if rho.mean is sigma.mean:
        return log
    delta = [x - y for x, y in zip(rho._mean_entries, sigma._mean_entries)]
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
    log = _log_overlap(rho, sigma)
    return OverlapResult(math.exp(log), log)


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
    log_cross = _log_overlap(rho, sigma)
    log_p1 = _log_overlap(rho, rho)
    log_p2 = _log_overlap(sigma, sigma)
    return math.exp(log_cross - 0.5 * (log_p1 + log_p2))


def c_squared(rho: GaussianState, sigma: GaussianState) -> float:
    """Squared overlap distance 1 - F^2 in [0, 1).

    Strictly below 1 for Gaussian states (their overlap never vanishes), so
    the result is clamped into [0, 1): tiny negative round-off from F ~ 1
    maps to zero, and F underflowing to zero maps to the float just below 1.
    """
    f = fidelity_f(rho, sigma)
    return _clamp(1.0 - f * f)
