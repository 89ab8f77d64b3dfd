"""Parametric two-mode families and comparison measures.

The symmetric squeezed thermal states (SSTS) form a two-parameter family
with standard form a = b = 1 + 2*n_bar and c = -d = 2*mu*sqrt(n_bar*(1+n_bar));
mu = 1 gives the two-mode squeezed vacuum.  For this family the correlation
measure, the geometric discord D_G and the average-distance measure Q all
have closed forms, implemented here in rearranged shapes that survive
n_bar up to ~1e13 without catastrophic cancellation:

with t = 1 + 2*n_bar, eps = 1/t^2, u = mu^2, us = u*(1 - eps) and
P = (1-mu)(1+mu) + u*eps  (an exact rewrite of 1 - us):

    nfg = us * (P + Q) / (2 Q^2),            Q = 1 - us/2
    dg  = 6 us eps / (P (2 + sqrt(W)) (1 + sqrt(W))),   W = (4 - 3u) + 3u*eps
    q   = 2 n_bar u / ((1 + 2 n_bar (1-mu)(1+mu)) (1 + 2 n_bar))

Every factor is positive and bounded away from cancellation on the whole
parameter range, so the values degrade gracefully to the n_bar -> infinity
limits (eps -> 0) instead of losing digits.

Each closed form has one implementation, written with + - * / and sqrt only,
so it runs element-wise on a float or on an array.  The point functions pass
one (n_bar, mu) pair; ``sweep`` and ``nfg sweep`` pass the whole grid as
arrays.  IEEE arithmetic rounds every element as it rounds the same scalar,
so a grid value equals the point value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, repeat

import numpy as np

from .states import GaussianState, _is_integer, _standard_rows

__all__ = [
    "SstsParams",
    "SweepGrid",
    "SweepRow",
    "dg_ssts",
    "nfg_ssts",
    "nfg_ssts_limit",
    "q_ssts",
    "ssts",
    "sweep",
    "tmsv",
]


@dataclass(frozen=True)
class SstsParams:
    """Symmetric squeezed thermal state parameters.

    ``n_bar`` is the mean photon number of each reduced mode, ``mu`` the
    mixing parameter: 0 gives a product of thermal states, 1 the two-mode
    squeezed vacuum.

    ``n_bar`` must be at most 1e150.  The closed forms stop holding in double
    precision near 7e153, where t^2 = (1 + 2 n_bar)^2 overflows and
    ``dg_ssts`` reads NaN at mu = 1; up to 1e150, t^2 and eps = 1/t^2 stay
    normal and the three closed forms match the raw formulas, evaluated in
    high precision, within a few ulps.
    """

    n_bar: float
    mu: float

    def __post_init__(self):
        if not _n_bar_ok(self.n_bar):
            if self.n_bar > _N_BAR_MAX and np.isfinite(self.n_bar):
                raise ValueError(f"n_bar must be at most {_N_BAR_MAX}, got {self.n_bar}")
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")
        if not _mu_ok(self.mu):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


_N_BAR_MAX = 1e150


def _n_bar_ok(n_bar):
    return (n_bar >= 0.0) & (n_bar <= _N_BAR_MAX)


def _mu_ok(mu):
    return np.isfinite(mu) & (mu >= 0.0) & (mu <= 1.0)


def ssts(p: SstsParams) -> GaussianState:
    """The symmetric squeezed thermal state as a zero-mean (1+1)-mode state.

    The matrix is in standard form with c >= |d| and physical for every valid
    `SstsParams`, so it goes to `GaussianState`, whose Simon verdict is the
    only one run, without a `StandardFormParams` check.
    """
    a = 1.0 + 2.0 * p.n_bar
    c = 2.0 * p.mu * np.sqrt(p.n_bar * (1.0 + p.n_bar))
    return GaussianState(_standard_rows(a, a, c, -c), 1, 1)


#: The largest r accepted by `tmsv`.
_R_MAX = 354.891356446692


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeeze parameter r >= 0.

    Diagonal entries cosh(2r), cross block diag(sinh 2r, -sinh 2r); equals
    ssts(n_bar = sinh^2 r, mu = 1).  Built like `ssts`, with one verdict.

    ``r`` must be at most 354.891356446692, the largest double for which
    2 cosh 2r is finite: the verdict symmetrizes the matrix as (G + G^T)/2,
    which overflows beyond it.  A larger r is rejected before cosh and sinh
    are evaluated.
    """
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")
    if r > _R_MAX:
        raise ValueError(f"squeeze parameter must be at most {_R_MAX}, got {r}")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return GaussianState(_standard_rows(ch, ch, sh, -sh), 1, 1)


def _split(n_bar, mu):
    """Common stable ingredients (eps, u, us, P) of the closed forms."""
    t = 1.0 + 2.0 * n_bar
    eps = 1.0 / (t * t)
    u = mu * mu
    us = u * (1.0 - eps)
    big_p = (1.0 - mu) * (1.0 + mu) + u * eps  # = 1 - us, cancellation-free
    return eps, u, us, big_p


def _nfg_from_us(us, big_p):
    q = 1.0 - 0.5 * us
    return us * (big_p + q) / (2.0 * q * q)


def _nfg(n_bar, mu):
    _, _, us, big_p = _split(n_bar, mu)
    return _nfg_from_us(us, big_p)


def _dg(n_bar, mu):
    eps, u, us, big_p = _split(n_bar, mu)
    root_w = np.sqrt((4.0 - 3.0 * u) + 3.0 * u * eps)
    return 6.0 * us * eps / (big_p * (2.0 + root_w) * (1.0 + root_w))


def _q(n_bar, mu):
    u = mu * mu
    omu = (1.0 - mu) * (1.0 + mu)
    return 2.0 * n_bar * u / ((1.0 + 2.0 * n_bar * omu) * (1.0 + 2.0 * n_bar))


def nfg_ssts(p: SstsParams) -> float:
    """Correlation measure of the SSTS, closed form.

    Algebraically 1 - (1-us)^2/(1-us/2)^2 with us as in the module notes;
    evaluated as us*(P+Q)/(2Q^2), which is exact at mu = 0 and keeps full
    precision as n_bar -> infinity.
    """
    return _nfg(p.n_bar, p.mu)


def dg_ssts(p: SstsParams) -> float:
    """Gaussian geometric discord of the SSTS, closed form.

    Algebraically 1/(t^2 - 4 mu^2 n(1+n)) - 9/(sqrt(4t^2 - 12 mu^2 n(1+n)) + t)^2
    with t = 1+2n; rearranged to the positive product in the module notes,
    whose factors never cancel (the raw difference loses all digits once the
    two terms agree to ~1e-16, which happens already at moderate n_bar).
    """
    return _dg(p.n_bar, p.mu)


def q_ssts(p: SstsParams) -> float:
    """Average-distance measure of the SSTS, closed form.

    Algebraically 1/(1 + 2 n_bar (1-mu^2)) - 1/(1 + 2 n_bar), evaluated over
    the common denominator so nothing cancels.
    """
    return _q(p.n_bar, p.mu)


def nfg_ssts_limit(mu: float) -> float:
    """Large-n_bar limit of nfg_ssts: 1 - (1-mu^2)^2/(1-mu^2/2)^2, mu in (0,1).

    Shares the nfg_ssts code path at eps = 0, so finite-n_bar values converge
    to this limit to the last float digit.
    """
    if not (np.isfinite(mu) and 0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in the open interval (0, 1), got {mu}")
    u = mu * mu
    return _nfg_from_us(u, (1.0 - mu) * (1.0 + mu))


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (n_bar, mu) grid specification with inclusive bounds; the
    step counts are ints or NumPy integers, not floats or bools."""

    n_bar_min: float
    n_bar_max: float
    n_bar_steps: int
    mu_min: float
    mu_max: float
    mu_steps: int

    def __post_init__(self):
        bounds = [self.n_bar_min, self.n_bar_max, self.mu_min, self.mu_max]
        if not all(np.isfinite(b) for b in bounds):
            raise ValueError("grid bounds must be finite")
        if not (_is_integer(self.n_bar_steps) and _is_integer(self.mu_steps)):
            raise ValueError(
                f"grid steps must be integers, got {self.n_bar_steps!r} and {self.mu_steps!r}"
            )
        if self.n_bar_steps < 1 or self.mu_steps < 1:
            raise ValueError("grid needs at least one step per axis")
        if self.n_bar_max < self.n_bar_min or self.mu_max < self.mu_min:
            raise ValueError("grid bounds must be monotone (max >= min)")


@dataclass(frozen=True)
class SweepRow:
    """One grid point with all measures and their pairwise differences."""

    n_bar: float
    mu: float
    nfg: float
    dg: float
    q: float
    nfg_minus_dg: float
    nfg_minus_q: float


def _sweep_columns(grid: SweepGrid) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The grid's validated n_bar and mu axes, and its five value columns
    (nfg, dg, q, nfg - dg, nfg - q) as flat float arrays, n_bar outer, mu inner.

    Each axis value repeats along the other axis, so callers expand the axes
    themselves.  An invalid grid raises the ValueError that SstsParams raises
    for its first bad point in grid order.  A bad mu makes every n_bar row
    bad, so that point is then in the first row, at the first bad mu (its
    n_bar may be bad too, and SstsParams checks n_bar first); otherwise it is
    at the first bad n_bar, with the first mu.
    """
    n_axis = np.linspace(grid.n_bar_min, grid.n_bar_max, grid.n_bar_steps)
    mu_axis = np.linspace(grid.mu_min, grid.mu_max, grid.mu_steps)
    bad_n, bad_mu = ~_n_bar_ok(n_axis), ~_mu_ok(mu_axis)
    if bad_mu.any():  # let SstsParams raise its own message
        SstsParams(float(n_axis[0]), float(mu_axis[bad_mu.argmax()]))
    if bad_n.any():
        SstsParams(float(n_axis[bad_n.argmax()]), float(mu_axis[0]))
    n_bar, mu = (x.ravel() for x in np.meshgrid(n_axis, mu_axis, indexing="ij"))
    nfg, dg, q = _nfg(n_bar, mu), _dg(n_bar, mu), _q(n_bar, mu)
    return n_axis, mu_axis, (nfg, dg, q, nfg - dg, nfg - q)


def sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate all closed forms on the grid, n_bar outer, mu inner.

    The grid is evaluated at once as arrays (`_sweep_columns`), and the rows
    repeat each n_bar over the mu axis and cycle that axis; every field is a
    float equal bit for bit to the point functions, and the difference
    columns agree exactly with the value columns of the same row.
    """
    n_axis, mu_axis, values = _sweep_columns(grid)
    n_bar = chain.from_iterable(repeat(n, mu_axis.size) for n in n_axis.tolist())
    mu = cycle(mu_axis.tolist())
    return [SweepRow(*row) for row in zip(n_bar, mu, *(c.tolist() for c in values))]
