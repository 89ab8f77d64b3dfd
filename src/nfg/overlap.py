"""Hilbert-Schmidt overlaps, purity, and fidelity-style quantities for
Gaussian states.

For Gaussian states with covariance matrices V1, V2 and means d1, d2 the
trace overlap has the closed form

    tr(rho1 rho2) = det[(V1 + V2)/2]^{-1/2} * exp(-1/2 * delta^T [(V1+V2)/2]^{-1} delta),

with delta = d1 - d2.  All determinants are evaluated in log space through a
Cholesky factorization, so the routines stay finite well past the point where
det would overflow, and purity (the self overlap) reuses the same code path
bit for bit.  At every size the factorization is `nfg.states._ldl`, the
scalar LDL^T that also decides the Simon verdict.  It factors the lower
triangle of sym((V1 + V2)/2), built in Python floats from the rows each
`GaussianState` keeps from its checks (`_mid_lower`), by the operations of
`nfg.states._mid` in its order, and the last step is libm's ``exp``
(`math.exp`).  So the module imports no NumPy and no overlap runs NumPy
arithmetic: the bits depend only on IEEE double arithmetic and the C
library, not on the CPU NumPy dispatches by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import GaussianState, _ldl, _singular

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


def _mid_lower_rows(v1: list[list[float]], v2: list[list[float]]) -> list[list[float]]:
    """`_mid_lower` by a loop over the rows, for any size; `_mid_lower_4`
    writes out its operations for 4 rows."""
    lower = []
    for i, (r1, r2) in enumerate(zip(v1, v2)):
        row = []
        for j in range(i):
            row.append(0.5 * (0.5 * r1[j] + 0.5 * r2[j]) + 0.5 * (0.5 * v1[j][i] + 0.5 * v2[j][i]))
        m = 0.5 * r1[i] + 0.5 * r2[i]
        row.append(0.5 * m + 0.5 * m)
        lower.append(row)
    return lower


def _mid_lower_4(v1: list[list[float]], v2: list[list[float]]) -> tuple[tuple[float, ...], ...]:
    """`_mid_lower_rows` written out for 4 rows: the same operations in the
    same order, so the same bits."""
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


def _mid_lower(v1: list[list[float]], v2: list[list[float]]):
    """The lower triangle of the symmetric part of m = (V1 + V2)/2, for
    covariance matrices given as nested lists, row by row: entry (i, j),
    j <= i, of `nfg.states._mid`(m, m^T) with m = `_mid`(V1, V2), by the
    same operations in the same order, so with the same bits.  `_ldl`
    reads only this triangle."""
    if len(v1) == 4:
        return _mid_lower_4(v1, v2)
    return _mid_lower_rows(v1, v2)


def _log_overlap(rho: GaussianState, sigma: GaussianState) -> float:
    """log tr(rho sigma) from the two states' rows and mean entries.

    It factors the symmetric part of mid = (V1 + V2)/2 (`_mid_lower`) by
    `_ldl` in float arithmetic: log det is the sum of the log pivots, and
    delta^T mid^{-1} delta the sum of z_i^2 / d_i with L z = delta by
    forward substitution; one mean, as in a self overlap, gives delta = 0.
    A pivot that is not > 0, a matrix singular at double precision, raises
    `_singular`'s `ValueError`.
    """
    factor = _ldl(_mid_lower(rho._rows, sigma._rows), 0.0)
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
