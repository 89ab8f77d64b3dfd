"""Phase-space representation of Gaussian states and symplectic utilities.

Conventions used throughout the package:

* quadrature ordering is (q1, p1, q2, p2, ...);
* covariance matrices (CMs) hold the symmetrized second moments
  ``gamma_kl = <{R_k - <R_k>, R_l - <R_l>}>`` in dimensionless units, so the
  vacuum CM is the identity;
* a CM is physical iff ``Gamma + i*Delta >= 0``, equivalently all of its
  symplectic eigenvalues are >= 1 (for symmetric positive-definite Gamma);
* Gaussian unitaries act as ``Gamma -> S Gamma S^T``, ``d -> S d + m`` with
  ``S`` symplectic, and Gaussian channels as ``Gamma -> K Gamma K^T + M``,
  ``d -> K d + d_bar`` with ``M + i(Delta - K Delta K^T) >= 0``, on the whole
  state or on one side of the partition.  Both maps are judged by one rule:
  their defining identity must hold up to `_allowance` of their scale;
* both positive-semidefiniteness conditions, Simon's for a state and the
  channel's, are decided by whether the matrix plus its allowance times I
  has a Cholesky factor, by the scalar factorization `_ldl`, at every size
  but one: the Simon verdict beyond 4 x 4 compares its smallest eigenvalue,
  which is faster there.  A one-mode unitary is checked as |det S - 1|.
  The same `_ldl` gives every overlap of `nfg.overlap` its determinant and
  mean term, at any size;
* the scalar kernels are written out, with no loop, for the only sizes a
  (1+1)-mode request meets: `_ldl_2` and `_ldl_4`, and the Simon verdicts
  `_verdict_2` and `_verdict_4`, which read g entry by entry and build only
  the lower triangle of the equilibrated matrix.  Each runs the operations
  of the row loops (`_ldl_rows` factors beyond 4 rows) in the same order,
  so verdicts, pivots and overlaps have the loops' bits.  A one-sided map
  of a 2-row side, at any partition, is written out too (`_map_rows`):
  (K X) K^T and the cross block in Python floats, association and order as
  NumPy's, but rounded without FMA, so a (1+1) request maps with no NumPy
  arithmetic and no BLAS product; larger sides keep `_act_on_side`;
* a constructor copies caller input once and rejects complex input
  (`_owned`); arrays built here are frozen in place, never copied again.  A
  `GaussianState` keeps the rows it listed for its checks, and the scalar
  kernels read them, not ``cm``: the correlation spectrum's C = 0 test, at
  every partition, and its (1+1) closed form, `standard_form`, every
  overlap of `nfg.overlap`, which builds the lower triangle of
  sym((V1 + V2)/2) from two states' rows, and the 2-row map.  A
  `GaussianUnitary` keeps the rows of S and a `GaussianChannel` those of K
  and M for that map, and the post-channel closed form reads the channel's.
  A map's output passes the constructor's check step, `GaussianState._admit`,
  with the rows it was built from, so it is not listed again.  No code
  writes to any of these rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "GaussianChannel",
    "GaussianState",
    "GaussianUnitary",
    "StandardFormParams",
    "ValidationReport",
    "WilliamsonDecomposition",
    "apply_channel",
    "apply_gaussian_unitary",
    "is_symplectic",
    "standard_form",
    "symplectic_form",
    "validate_cm",
    "williamson",
]

#: Default validation tolerance, relative to the matrix scale (see
#: `validate_cm`).  Double-precision eigen-solves on the small (<= 8x8)
#: matrices handled here are accurate to a few ulps of that scale, so 1e-9
#: leaves a wide safety margin.
DEFAULT_TOL = 1e-9


@cache
def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, a direct sum of [[0,1],[-1,0]].

    The array is read-only and shared by every caller asking for ``n`` modes.
    """
    if n < 1:
        raise ValueError("mode count must be a positive integer")
    delta = np.zeros((2 * n, 2 * n))
    q = np.arange(0, 2 * n, 2)
    delta[q, q + 1] = 1.0
    delta[q + 1, q] = -1.0
    return _frozen(delta)


@cache
def _zeros(n: int) -> np.ndarray:
    """The read-only zero vector of length ``n``, shared as `symplectic_form` is."""
    return _frozen(np.zeros(n))


def _owned(a, name: str) -> np.ndarray:
    """``a`` as read-only float64 no caller can write: itself if it already is
    and owns its memory, as arrays built here do, else one frozen copy.
    Complex input raises: a cast would drop its imaginary part."""
    if isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable and a.dtype == float:
        return a
    a = np.array(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex entries")
    return _frozen(a.astype(float, copy=False))


def _square_even(m, name: str) -> np.ndarray:
    """``m`` `_owned`, square and of even positive dimension."""
    m = _owned(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even positive dimension, got {m.shape[0]}")
    return m


def _check_finite(rows: list[list[float]], name: str) -> None:
    """Raise unless every entry of a matrix given as nested lists is finite."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise ValueError(f"{name} has non-finite entries")


def _as_square_even(m, name: str) -> tuple[np.ndarray, list[list[float]]]:
    """``(m, rows)``: an `_owned`, finite, square, even ``m`` and its rows."""
    m = _square_even(m, name)
    rows = m.tolist()
    _check_finite(rows, name)
    return m, rows


def _as_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as an `_owned` finite vector of length ``n``; the shared `_zeros`
    if it is None."""
    if v is None:
        return _zeros(n)
    v = _owned(v, name)
    if v.shape != (n,) or not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} must be a finite vector of length {n}, got {v}")
    return v


def _is_integer(n) -> bool:
    """Whether ``n`` is an int or a NumPy integer: a count.  A bool, a float
    (1.0 included) and anything else is not."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, just built here and held by nothing else, made read-only in place."""
    a.setflags(write=False)
    return a


class _cached_property(cached_property):
    """`cached_property` without the lock Python 3.11 takes on a miss: threads
    that miss at once each compute the value, and get the same one."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


def _mid(x, y):
    """(x + y)/2 without overflow, for every symmetrization and midpoint.

    Halving is exact and scaling by 2 commutes with rounding, so this equals
    0.5 * (x + y) bit for bit unless a half is subnormal; but x + y
    overflows from ~9e307 on, and x/2 + y/2 never does.
    """
    return 0.5 * x + 0.5 * y


def _cholesky(m: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a covariance block, read from its lower
    triangle; a block that does not factor raises `_singular`'s `ValueError`.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc


def _singular() -> ValueError:
    """The error for a covariance block that does not factor.

    The matrices factorized here are blocks of physical covariance matrices
    or means of two, so a failed factorization means the matrix is singular
    at double precision: a pure state squeezed so far that it is stored with
    a zero determinant (the TMSV at n_bar = 1e10 already).  No overlap of
    such a state, and so no measure, is defined in floating point.
    """
    return ValueError(
        "covariance matrix is singular at double precision "
        "(a pure state squeezed past what float64 resolves); "
        "its overlaps are undefined"
    )


def _cholesky_2x2(p: float, q: float, r: float) -> tuple[float, float, float, float]:
    """``(l00, l10, l11, det)``: the lower Cholesky factor of [[p, q], [q, r]]
    in scalar arithmetic, by the steps LAPACK takes (the column is scaled by
    the pivot's reciprocal), so the same blocks fail to factor; they raise
    `_singular`'s `ValueError`.  ``det`` = p * pivot is the block's
    determinant, exactly p^2 for a block p I."""
    if p > 0.0:
        l00 = math.sqrt(p)
        l10 = q * (1.0 / l00)
        pivot = r - l10 * l10
        if pivot > 0.0:
            return l00, l10, math.sqrt(pivot), p * pivot
    raise _singular()


def _whiten(g: list[list[float]], unit: float = 1.0) -> tuple[tuple, tuple, tuple]:
    """``(l_a, l_b, w)`` for a (1+1)-mode covariance matrix ``g`` (nested
    lists) divided by ``unit``, in scalar arithmetic: the `_cholesky_2x2`
    results of the A and B blocks and W = L_A^{-1} C L_B^{-T} as
    ``(w00, w01, w10, w11)``, by two forward substitutions.  Reads the lower
    triangles of A and B, as LAPACK's Cholesky does, and divides only the
    entries it reads (exactly, by the default 1.0); a block that does not
    factor raises `_singular`'s `ValueError`.  The correlation spectrum and
    the standard form both start here.
    """
    (a00, _, c00, c01), (a10, a11, c10, c11), (_, _, b00, _), (_, _, b10, b11) = g
    a00, a10, a11 = a00 / unit, a10 / unit, a11 / unit
    b00, b10, b11 = b00 / unit, b10 / unit, b11 / unit
    c00, c01, c10, c11 = c00 / unit, c01 / unit, c10 / unit, c11 / unit
    la0, la1, la2, _ = l_a = _cholesky_2x2(a00, a10, a11)
    lb0, lb1, lb2, _ = l_b = _cholesky_2x2(b00, b10, b11)
    # Y = L_A^{-1} C, then W = Y L_B^{-T}
    y00, y01 = c00 / la0, c01 / la0
    y10, y11 = (c10 - la1 * y00) / la2, (c11 - la1 * y01) / la2
    w00, w10 = y00 / lb0, y10 / lb0
    w01, w11 = (y01 - lb1 * w00) / lb2, (y11 - lb1 * w10) / lb2
    return l_a, l_b, (w00, w01, w10, w11)


def _svd_2x2(w: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """``(p, q, u, v)`` for a 2x2 W = ``(w00, w01, w10, w11)``, in scalar
    arithmetic: with e, f = (w00 +- w11)/2 and g, h = (w10 +- w01)/2,
    p = |(e, h)|, q = |(f, g)|, u = atan2(h, e) and v = atan2(g, f).

    W = R(phi) diag(p + q, p - q) R(theta) with phi, theta = (u +- v)/2 and
    R(t) = [[cos t, -sin t], [sin t, cos t]], so W's singular values are
    p + q and |p - q|, and p - q carries the sign of det W.  The correlation
    spectrum and the standard form both read them here.
    """
    w00, w01, w10, w11 = w
    e, f, g, h = 0.5 * (w00 + w11), 0.5 * (w00 - w11), 0.5 * (w10 + w01), 0.5 * (w10 - w01)
    return math.hypot(e, h), math.hypot(f, g), math.atan2(h, e), math.atan2(g, f)


def _two_mode_spectrum(g: list[list[float]]) -> tuple[float, float]:
    """The correlation spectrum of a (1+1)-mode covariance matrix ``g``
    (nested lists), ascending and clipped at 1, in scalar arithmetic.

    The 2x2 case of `GaussianState._correlation_spectrum`: mu are the
    squared singular values p +- q (`_svd_2x2`) of the `_whiten` matrix
    W = L_A^{-1} C L_B^{-T}, so no LAPACK call runs.
    """
    p, q, _, _ = _svd_2x2(_whiten(g)[2])
    low, high = p - q, p + q
    return min(low * low, 1.0), min(high * high, 1.0)


def _max_abs(rows: list[list[float]]) -> float:
    """max|x| over the entries of a matrix given as nested lists."""
    return max(map(abs, itertools.chain.from_iterable(rows)))


def _same_bits(x: list[list[float]], y: list[list[float]]) -> bool:
    """Whether two matrices of finite floats, given as nested lists, hold the
    same bits: equal entries, and zeros of equal sign, which ``==`` does not
    tell apart."""
    return x == y and all(
        math.copysign(1.0, p) == math.copysign(1.0, q)
        for p, q in zip(itertools.chain.from_iterable(x), itertools.chain.from_iterable(y))
        if not p
    )


def _symmetric_part(g: np.ndarray) -> tuple[bool, np.ndarray]:
    """``(symmetric, gs)``: whether ``g`` is symmetric within `DEFAULT_TOL`
    relative to max(1, max|g|), and its symmetric part ``gs``.

    g is halved once: h - h^T and h + h^T are `_mid(g, -g.T)` and
    `_mid(g, g.T)` bit for bit, as 0.5 (-x) = -(0.5 x) and adding -y is
    subtracting y, subnormal halves included.
    """
    scale = max(1.0, float(np.abs(g).max()))
    h = 0.5 * g
    # half the asymmetry against half the tolerance: the same test, no overflow
    symmetric = float(np.abs(h - h.T).max()) <= 0.5 * DEFAULT_TOL * scale
    return symmetric, h + h.T


def _symmetric_rows(rows: list[list[float]]) -> tuple[bool, list[list[float]]]:
    """`_symmetric_part` of a matrix given as nested lists, in scalar
    arithmetic with the same roundings; ``gs`` is nested lists too."""
    scale = max(1.0, _max_abs(rows))
    gs = [row.copy() for row in rows]
    asymmetry = 0.0
    for i, row in enumerate(rows):
        for j in range(i):
            x, y = 0.5 * row[j], 0.5 * rows[j][i]  # `_mid`'s halves
            asymmetry = max(asymmetry, abs(x - y))
            gs[i][j] = gs[j][i] = x + y
        gs[i][i] = _mid(row[i], row[i])
    return asymmetry <= 0.5 * DEFAULT_TOL * scale, gs


#: Rounding of a Gaussian map's defining identity, per unit of its scale.
#: Products of passive, squeezing and passive maps on 1-4 modes round
#: S Delta S^T by at most ~6 eps max|S|^2; a scaled copy (1 + e) S is off by
#: ~2e.
_ROUNDING = 32.0 * float(np.finfo(float).eps)


def _allowance(scale: float) -> float:
    """How far the defining identity of a Gaussian map, built from entries
    up to ``scale``, may miss: max(`DEFAULT_TOL`, 32 eps scale).

    The rounding term takes over from scale ~ 1.4e5 (max|S| ~ 375), so
    squeezers up to r ~ 16, those of the n_bar = 1e13 states `validate_cm`
    accepts, are not rejected on rounding, and 2 S is still rejected there.
    `is_symplectic` and `GaussianChannel` both read it.
    """
    return max(DEFAULT_TOL, _ROUNDING * scale)


def _ldl_rows(h, shift: float) -> tuple[list[list], list[float]] | None:
    """`_ldl` by a loop over the rows, for any size; `_ldl_2` and `_ldl_4`
    write out its operations for 2 and 4 rows."""
    conj_lower, pivots = [], []
    for i, row in enumerate(h):
        u_row, c_row = [], []  # u_ij = l_ij d_j, and conj(l_ij)
        pivot = row[i].real + shift
        for j, (c_j, d_j) in enumerate(zip(conj_lower, pivots)):
            u = row[j]
            for u_k, c_jk in zip(u_row, c_j):
                u -= u_k * c_jk
            c = (u / d_j).conjugate()
            pivot -= (u * c).real
            u_row.append(u)
            c_row.append(c)
        if not pivot > 0.0:
            return None
        conj_lower.append(c_row)
        pivots.append(pivot)
    return conj_lower, pivots


def _ldl_2(h, shift: float) -> tuple[list[list], list[float]] | None:
    """`_ldl_rows` written out for 2 rows: the same operations in the same
    order, so the same bits."""
    r0, r1 = h
    p0 = r0[0].real + shift
    if not p0 > 0.0:
        return None
    u10 = r1[0]
    c10 = (u10 / p0).conjugate()
    p1 = r1[1].real + shift - (u10 * c10).real
    if not p1 > 0.0:
        return None
    return [[], [c10]], [p0, p1]


def _ldl_4(h, shift: float) -> tuple[list[list], list[float]] | None:
    """`_ldl_rows` written out for 4 rows: the same operations in the same
    order, so the same bits.  u_ij = l_ij d_j and c_ij = conj(l_ij)."""
    r0, r1, r2, r3 = h
    p0 = r0[0].real + shift
    if not p0 > 0.0:
        return None
    u10 = r1[0]
    c10 = (u10 / p0).conjugate()
    p1 = r1[1].real + shift - (u10 * c10).real
    if not p1 > 0.0:
        return None
    u20 = r2[0]
    c20 = (u20 / p0).conjugate()
    u21 = r2[1] - u20 * c10
    c21 = (u21 / p1).conjugate()
    p2 = r2[2].real + shift - (u20 * c20).real - (u21 * c21).real
    if not p2 > 0.0:
        return None
    u30 = r3[0]
    c30 = (u30 / p0).conjugate()
    u31 = r3[1] - u30 * c10
    c31 = (u31 / p1).conjugate()
    u32 = r3[2] - u30 * c20 - u31 * c21
    c32 = (u32 / p2).conjugate()
    p3 = r3[3].real + shift - (u30 * c30).real - (u31 * c31).real - (u32 * c32).real
    if not p3 > 0.0:
        return None
    return [[], [c10], [c20, c21], [c30, c31, c32]], [p0, p1, p2, p3]


def _ldl(h, shift: float) -> tuple[list[list], list[float]] | None:
    """The LDL^H factorization of h + shift I, for a Hermitian ``h`` given
    as nested lists, of which only the lower triangle is read:
    ``(conj_lower, pivots)``, the rows of conj(L) left of L's unit diagonal
    and the diagonal of D, or None at the first pivot that is not > 0 (a NaN
    included), in Python scalar arithmetic, complex or float as ``h`` is:
    `_ldl_2`, `_ldl_4` and beyond the row loop `_ldl_rows`, with the same
    bits.  In exact arithmetic a factor exists iff lambda_min(h) > -shift;
    the factorization is backward stable, so in floating point the two part
    only within a small multiple of eps max|h| of the threshold.  The Simon
    verdict up to 4 x 4, the channel check and every overlap of
    `nfg.overlap` factor here.
    """
    n = len(h)
    if n == 4:
        return _ldl_4(h, shift)
    if n == 2:
        return _ldl_2(h, shift)
    return _ldl_rows(h, shift)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a covariance-matrix physicality check."""

    symmetric: bool
    symplectic_eigenvalues: np.ndarray  # descending
    positive_definite: bool
    physical: bool


def _verdict_2(rows: list[list[float]]) -> tuple[bool, bool]:
    """`_verdict` of a 2 x 2 matrix given as nested lists, written out: the
    operations of `_symmetric_rows` and the equilibration, on the lower
    triangle only, then `_ldl_2`."""
    (g00, g01), (g10, g11) = rows
    scale = max(1.0, abs(g00), abs(g01), abs(g10), abs(g11))
    x10, y10 = 0.5 * g10, 0.5 * g01  # `_mid`'s halves
    if not abs(x10 - y10) <= 0.5 * DEFAULT_TOL * scale:
        return False, False
    d0, d1 = 0.5 * g00 + 0.5 * g00, 0.5 * g11 + 0.5 * g11
    if not (d0 > 0.0 and d1 > 0.0):
        return True, False
    r0, r1 = 1.0 / math.sqrt(d0), 1.0 / math.sqrt(d1)
    w01 = r0 * r1  # + i Delta, scaled alike
    lower = ((d0 * (r0 * r0),), (complex((x10 + y10) * w01, -w01), d1 * (r1 * r1)))
    return True, _ldl_2(lower, DEFAULT_TOL) is not None


def _verdict_4(rows: list[list[float]]) -> tuple[bool, bool]:
    """`_verdict` of a 4 x 4 matrix given as nested lists, written out: the
    operations of `_symmetric_rows` and the equilibration, on the lower
    triangle only, then `_ldl_4`."""
    (g00, g01, g02, g03), (g10, g11, g12, g13), (g20, g21, g22, g23), (g30, g31, g32, g33) = rows
    scale = max(
        1.0, abs(g00), abs(g01), abs(g02), abs(g03), abs(g10), abs(g11), abs(g12), abs(g13),
        abs(g20), abs(g21), abs(g22), abs(g23), abs(g30), abs(g31), abs(g32), abs(g33),
    )  # fmt: skip
    x10, y10 = 0.5 * g10, 0.5 * g01  # `_mid`'s halves
    x20, y20 = 0.5 * g20, 0.5 * g02
    x21, y21 = 0.5 * g21, 0.5 * g12
    x30, y30 = 0.5 * g30, 0.5 * g03
    x31, y31 = 0.5 * g31, 0.5 * g13
    x32, y32 = 0.5 * g32, 0.5 * g23
    asymmetry = max(
        abs(x10 - y10), abs(x20 - y20), abs(x21 - y21),
        abs(x30 - y30), abs(x31 - y31), abs(x32 - y32),
    )  # fmt: skip
    if not asymmetry <= 0.5 * DEFAULT_TOL * scale:
        return False, False
    d0, d1 = 0.5 * g00 + 0.5 * g00, 0.5 * g11 + 0.5 * g11
    d2, d3 = 0.5 * g22 + 0.5 * g22, 0.5 * g33 + 0.5 * g33
    if not (d0 > 0.0 and d1 > 0.0 and d2 > 0.0 and d3 > 0.0):
        return True, False
    r0, r1 = 1.0 / math.sqrt(d0), 1.0 / math.sqrt(d1)
    r2, r3 = 1.0 / math.sqrt(d2), 1.0 / math.sqrt(d3)
    w01, w23 = r0 * r1, r2 * r3  # + i Delta, scaled alike
    lower = (
        (d0 * (r0 * r0),),
        (complex((x10 + y10) * w01, -w01), d1 * (r1 * r1)),
        ((x20 + y20) * (r2 * r0), (x21 + y21) * (r2 * r1), d2 * (r2 * r2)),
        (
            (x30 + y30) * (r3 * r0),
            (x31 + y31) * (r3 * r1),
            complex((x32 + y32) * w23, -w23),
            d3 * (r3 * r3),
        ),
    )
    return True, _ldl_4(lower, DEFAULT_TOL) is not None


def _verdict(g: np.ndarray, rows: list[list[float]]) -> tuple[bool, bool]:
    """The `validate_cm` verdict ``(symmetric, physical)`` of a square, even,
    finite ``g`` and its ``rows``: Simon's criterion on the equilibrated
    matrix at `DEFAULT_TOL`, up to 4 x 4 by `_ldl` on the rows (`_verdict_2`,
    `_verdict_4`), beyond in NumPy, with one Hermitian eigensolve:
    lambda_min >= -`DEFAULT_TOL`.  `_report` adds the report-only
    eigensolves.
    """
    n = len(rows)
    if n == 4:
        return _verdict_4(rows)
    if n == 2:
        return _verdict_2(rows)
    symmetric, gs = _symmetric_part(g)
    diag = np.diag(gs)
    if not (symmetric and np.all(diag > 0.0)):
        return symmetric, False
    root = 1.0 / np.sqrt(diag)
    simon = (gs + 1j * symplectic_form(n // 2)) * np.outer(root, root)
    # One eigensolve, not a scalar verdict by `_ldl_rows`: on a 2-vCPU Intel
    # Xeon host that verdict took 30.9 against 27.0 us at 6 x 6 and 46.4
    # against 28.0 us at 8 x 8, and made a `multimode_search` op 12-17% slower.
    return symmetric, bool(np.linalg.eigvalsh(simon)[0] >= -DEFAULT_TOL)


def validate_cm(gamma) -> ValidationReport:
    """Check whether `gamma` is a physical covariance matrix.

    The verdict combines symmetry within `DEFAULT_TOL` (relative to max|Gamma|)
    with Simon's criterion Gamma + i*Delta >= 0, tested on the equilibrated
    D^{-1/2} (Gamma + i*Delta) D^{-1/2} with D = diag(Gamma) > 0: it must have
    no eigenvalue below -DEFAULT_TOL.  That matrix has unit diagonal however
    large Gamma is, so the tolerance means the same thing at every scale: a
    relative distance to the physical set.  (The singular two-mode matrix with
    a = b = c = -d, nu_min = 0, is that close for a >~ 3e4.)  Up to 4 x 4 the
    test is whether the matrix plus DEFAULT_TOL I has a Cholesky factor, by
    the scalar factorization (`_ldl`); larger matrices, where one eigensolve
    is faster, compare their smallest eigenvalue.  Symplectic eigenvalues
    are the moduli of the eigenvalues of i*Delta*Gamma, reported once each,
    in descending order; for one mode the one modulus is sqrt|det Gamma|, in
    scalar arithmetic, so 3 I reads exactly 3.  ``positive_definite`` is the
    smallest eigenvalue of Gamma being > 0.  A pure state squeezed past
    double precision (n_bar >~ 1e8) is stored as a singular matrix, so it
    can read not positive definite with nu_min ~ 0 and still be physical
    within the tolerance.

    Only the Simon test decides ``physical``; the symplectic spectrum and
    ``positive_definite`` take two eigensolves (one for a single mode) and
    serve the report, which `GaussianState` builds only to explain a
    rejection.
    """
    g, rows = _as_square_even(gamma, "covariance matrix")
    return _report(g, _verdict(g, rows))


def _even_power(peak: float) -> float:
    """The largest even power of two at most ``peak`` > 0.  Dividing a matrix
    by it is exact, and so are the square roots of what it scales."""
    return math.ldexp(1.0, (math.frexp(peak)[1] - 1) // 2 * 2)


def _report(g: np.ndarray, verdict: tuple) -> ValidationReport:
    """The `validate_cm` report of ``g`` around its `_verdict`.  The
    symmetric part, which the 2- and 4-row verdicts do not build, is taken
    here by `_symmetric_part`."""
    symmetric, physical = verdict
    gs = _symmetric_part(g)[1]
    # Gamma scaled down, so its products are finite up to the float maximum
    # and the eigensolve, square roots too, scales exactly
    scale = _even_power(float(np.abs(gs).max()))
    if len(gs) == 2:  # Delta Gamma has eigenvalues +-sqrt(-det Gamma)
        (g00, g01), (g10, g11) = (gs / scale).tolist()
        nus = np.array([math.sqrt(abs(g00 * g11 - g01 * g10)) * scale])
    else:
        delta = symplectic_form(g.shape[0] // 2)
        moduli = np.sort(np.abs(np.linalg.eigvals(delta @ (gs / scale)))) * scale
        nus = moduli[::2][::-1]  # pairs collapse to one entry each, descending
    positive_definite = bool(np.linalg.eigvalsh(gs)[0] > 0.0)
    return ValidationReport(symmetric, _frozen(nus), positive_definite, physical)


#: Largest entry a Gaussian map (S or K) may have: S Delta S^T and max|S|^2
#: stay finite.
_K_MAX = 1e150


def _map_peak(rows: list[list[float]], name: str) -> float:
    """max|m| of a Gaussian map's matrix, given as nested lists, refused
    past `_K_MAX` before any product of it is formed."""
    peak = _max_abs(rows)
    if peak > _K_MAX:
        raise ValueError(f"entries of {name} must be at most {_K_MAX} in modulus, got {peak}")
    return peak


def is_symplectic(s) -> bool:
    """True iff max|S Delta S^T - Delta| <= `_allowance` (max|S|^2).

    By `_allowance`, squeezers up to r ~ 16 pass and 2 S is rejected.  For
    one mode S Delta S^T = det S Delta, so the test reads |det S - 1| in
    scalar arithmetic.  An S with max|S| above 1e150 raises a `ValueError`,
    as a channel's K does.
    """
    return _symplectic(*_as_square_even(s, "matrix"))


def _symplectic(s: np.ndarray, rows: list[list[float]]) -> bool:
    """`is_symplectic` of `_as_square_even`'s ``(s, rows)``."""
    peak = _map_peak(rows, "S")
    if len(rows) == 2:
        (s00, s01), (s10, s11) = rows
        miss = abs(s00 * s11 - s01 * s10 - 1.0)
    else:
        delta = symplectic_form(len(rows) // 2)
        miss = float(np.abs(s @ delta @ s.T - delta).max())
    return miss <= _allowance(peak**2)


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: covariance matrix, mean vector, and an A|B partition.

    ``cm`` is 2(n_a+n_b) x 2(n_a+n_b) with the block layout
    ``[[A, C], [C^T, B]]`` where A covers the first 2*n_a rows; the mode
    counts are ints or NumPy integers, not floats or bools.  ``mean``
    defaults to the shared read-only zero vector.  Construction copies the
    arrays once, read-only (`_owned`: complex input raises), then one check
    step (`_admit`) rejects non-finite entries and checks the Simon verdict
    of `validate_cm` at `DEFAULT_TOL`; the full report is built only to
    explain a rejection.  Every state, the outputs of
    `apply_gaussian_unitary` and `apply_channel` included, passes that step:
    a map hands it the output array, frozen as built, and the rows it was
    built from.  Instances are immutable and safe to share between threads.

    The state keeps, privately, the rows of ``cm`` as nested lists, listed
    once for those checks.  The scalar kernels read them instead of ``cm``:
    the correlation spectrum's C = 0 test and its (1+1) closed form,
    `standard_form`, every overlap of `nfg.overlap` and the map of a 2-row
    side.  No code writes to them.

    The correlation spectrum behind the measure and its bound (see
    `nfg.correlation`) is computed on first use and kept with the instance,
    which never changes; it is a tuple of floats, and two threads that miss
    it at once compute the same value, with no lock.
    """

    cm: np.ndarray
    n_a: int
    n_b: int
    mean: np.ndarray | None = None

    def __post_init__(self):
        if not (_is_integer(self.n_a) and _is_integer(self.n_b)):
            raise ValueError(f"n_a and n_b must be integers, got {self.n_a!r} and {self.n_b!r}")
        if self.n_a < 0 or self.n_b < 0 or self.n_a + self.n_b < 1:
            raise ValueError("need n_a, n_b >= 0 with at least one mode in total")
        g = _square_even(self.cm, "covariance matrix")
        self._admit(g, g.tolist(), self.mean)

    def _admit(self, g: np.ndarray, rows: list[list[float]], mean) -> None:
        """The check every state passes, built by the constructor or by
        `_map_side`: ``g``, square and even, and its ``rows`` must be finite
        and fit the mode counts, ``mean`` must pass `_as_vector`, and the
        rows the Simon verdict; a rejection explains itself by `_report`.
        Sets ``cm``, ``mean`` and the rows the scalar kernels read."""
        _check_finite(rows, "covariance matrix")
        dim = 2 * (self.n_a + self.n_b)
        if len(rows) != dim:
            raise ValueError(
                f"covariance matrix is {len(rows)}x{len(rows)}, "
                f"expected {dim}x{dim} for {self.n_a}+{self.n_b} modes"
            )
        mean = _as_vector(mean, dim, "mean")
        verdict = _verdict(g, rows)
        if not verdict[1]:
            report = _report(g, verdict)
            raise ValueError(
                "covariance matrix is not physical "
                f"(symmetric={report.symmetric}, "
                f"positive_definite={report.positive_definite}, "
                f"min symplectic eigenvalue={report.symplectic_eigenvalues[-1]:.6g})"
            )
        vars(self).update(cm=g, mean=mean, _rows=rows)  # past the frozen __setattr__

    @property
    def _uncorrelated(self) -> bool:
        """Whether the rows hold C = 0, a -0.0 entry counting as zero: the
        one C = 0 test, behind the correlation spectrum's zeros and
        `_spectrum_degenerate`'s product states."""
        k = 2 * self.n_a
        return not any(x for row in self._rows[:k] for x in row[k:])

    @_cached_property
    def _correlation_spectrum(self) -> tuple[float, ...]:
        """mu, the squared canonical correlations between A and B, ascending.

        A tuple of 2 n_b floats: the squared singular values of
        W = L_A^{-1} C L_B^{-T} (see the `nfg.correlation` notes), clipped at
        1, zeros in front: in closed form for (1+1) modes, on the state's rows
        (`_two_mode_spectrum`), else by two triangular solves, on L_A
        (`_chol_a`) and L_B, and one SVD, reading only A's and B's lower
        triangles.  All zeros, nothing factorized, when the rows hold C = 0,
        so a product state scores 0 even with a block squeezed past double
        precision.  A correlated state whose A or B block does not factor
        raises `_singular`'s `ValueError`.
        """
        if self._uncorrelated:
            return (0.0,) * (2 * self.n_b)
        if self.n_a == self.n_b == 1:
            return _two_mode_spectrum(self._rows)
        k, g = 2 * self.n_a, self.cm
        y = np.linalg.solve(self._chol_a, g[:k, k:])  # L_A^{-1} C
        w_t = np.linalg.solve(_cholesky(g[k:, k:]), y.T)  # W^T = L_B^{-1} Y^T
        sigma = np.linalg.svd(w_t, compute_uv=False)[::-1].tolist()  # W's, ascending
        return (0.0,) * (2 * self.n_b - len(sigma)) + tuple(min(s * s, 1.0) for s in sigma)

    @_cached_property
    def _chol_a(self) -> np.ndarray:
        """L_A, the lower Cholesky factor of the A block, read-only; a block
        that does not factor raises `_singular`'s `ValueError`.  The generic
        correlation spectrum solves it and `nfg_numeric`'s degeneracy flag
        reads it, its rows for two A modes and by one eigensolve for more, so
        A is factored once per state, whichever runs first."""
        k = 2 * self.n_a
        return _frozen(_cholesky(self.cm[:k, :k]))


@dataclass(frozen=True)
class GaussianUnitary:
    """Phase-space action of a Gaussian unitary: Gamma -> S Gamma S^T, d -> S d + m.

    S must pass `is_symplectic`, the map rule `GaussianChannel` applies too.
    S and m are copied once, as a state's arrays are.  The unitary keeps,
    privately, the rows of S listed for that check, which the map of a
    2-row side reads (see `apply_gaussian_unitary`).
    """

    s: np.ndarray
    m: np.ndarray | None = None

    def __post_init__(self):
        s, rows = _as_square_even(self.s, "symplectic matrix")
        if not _symplectic(s, rows):
            raise ValueError("matrix does not satisfy S Delta S^T = Delta")
        vars(self).update(s=s, m=_as_vector(self.m, len(rows), "m"), _rows=rows)


def _act_on_side(cm: np.ndarray, ka: int, side: str, k: np.ndarray) -> np.ndarray:
    """Return ``(K ⊕ I) cm (K ⊕ I)^T``, or ``(I ⊕ K) cm (I ⊕ K)^T`` for side "B".

    ``cm`` has the layout ``[[A, C], [C^T, B]]`` with A of size ``ka``.  Only
    the rows and columns of ``side`` are recomputed: the other diagonal block
    is copied bit for bit and the lower cross block mirrors the upper one.
    """
    g = cm.copy()
    if side == "A":
        g[:ka, :ka] = k @ cm[:ka, :ka] @ k.T
        g[:ka, ka:] = k @ cm[:ka, ka:]
    else:
        g[ka:, ka:] = k @ cm[ka:, ka:] @ k.T
        g[:ka, ka:] = cm[:ka, ka:] @ k.T
    g[ka:, :ka] = g[:ka, ka:].T
    return g


def _map_rows(
    rows: list[list[float]], p: int, k: list[list[float]], noise: list[list[float]] | None
) -> list[list[float]]:
    """`_act_on_side`, plus ``noise`` on the side's block, for the 2-row side
    starting at row ``p`` of a matrix given as nested lists, in Python
    floats: the side's block is (K X) K^T, association and order as NumPy's,
    the cross block C K^T (side B, rows above) or K C (side A, columns to the
    right), read from the upper triangle and mirrored.  The other diagonal
    block is carried over bit for bit.  A product that overflows gives inf
    or NaN, with no warning."""
    (k00, k01), (k10, k11) = k
    q = p + 1
    out = [row.copy() for row in rows]
    (x00, x01), (x10, x11) = rows[p][p : q + 1], rows[q][p : q + 1]
    t00, t01 = k00 * x00 + k01 * x10, k00 * x01 + k01 * x11  # K X
    t10, t11 = k10 * x00 + k11 * x10, k10 * x01 + k11 * x11
    y00, y01 = t00 * k00 + t01 * k01, t00 * k10 + t01 * k11
    y10, y11 = t10 * k00 + t11 * k01, t10 * k10 + t11 * k11
    if noise is not None:
        (m00, m01), (m10, m11) = noise
        y00, y01, y10, y11 = y00 + m00, y01 + m01, y10 + m10, y11 + m11
    out[p][p : q + 1], out[q][p : q + 1] = (y00, y01), (y10, y11)
    for i in range(len(rows)):
        if i < p:  # C above side B: row i of C K^T
            c0, c1 = rows[i][p], rows[i][q]
        elif i > q:  # C right of side A: column i of K C
            c0, c1 = rows[p][i], rows[q][i]
        else:
            continue
        out[i][p] = out[p][i] = c0 * k00 + c1 * k01
        out[i][q] = out[q][i] = c0 * k10 + c1 * k11
    return out


def _map_side(
    state: GaussianState,
    side: str,
    k: tuple[np.ndarray, list[list[float]]],
    shift: np.ndarray,
    noise: tuple[np.ndarray, list[list[float]]] | None = None,
) -> GaussianState:
    """Map one side of the partition: the side's rows and columns of the
    covariance matrix by K, plus M on its diagonal block, and its part of
    the mean to K d + shift.  ``k`` and ``noise`` are ``(array, rows)``
    pairs, as `_as_square_even` gives them.

    The other diagonal block and the other part of the mean are carried over
    bit for bit.  A 2-row side maps in Python floats, on the state's rows and
    K's (`_map_rows`), and the output array is built once from its rows;
    a larger side maps in NumPy (`_act_on_side`), with its overflow and
    invalid-value warnings off.  Either output goes through the check every
    state passes (`GaussianState._admit`), without being copied or listed
    again: an overflow gives inf or NaN entries, which it rejects with a
    `ValueError`, and the Simon verdict runs again.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    k, k_rows = k
    ka, n = 2 * state.n_a, len(state._rows)
    p, width = (0, ka) if side == "A" else (ka, n - ka)
    if len(k_rows) != width:
        raise ValueError(f"dimension {len(k_rows)} does not match side {side}")
    if width == 2:
        (k00, k01), (k10, k11) = k_rows
        d = state.mean.tolist()
        (d0, d1), (s0, s1) = d[p : p + 2], shift.tolist()
        d[p : p + 2] = k00 * d0 + k01 * d1 + s0, k10 * d0 + k11 * d1 + s1
        rows = _map_rows(state._rows, p, k_rows, None if noise is None else noise[1])
        g, mean = np.array(rows, float), np.array(d)
    else:
        part = slice(p, p + width)
        mean = state.mean.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            mean[part] = k @ state.mean[part] + shift
            g = _act_on_side(state.cm, ka, side, k)
            if noise is not None:
                g[part, part] += noise[0]
        rows = g.tolist()
    out = object.__new__(GaussianState)  # the mode counts passed with ``state``
    vars(out).update(n_a=state.n_a, n_b=state.n_b)
    out._admit(_frozen(g), rows, _frozen(mean))
    return out


def apply_gaussian_unitary(state: GaussianState, u: GaussianUnitary, side: str) -> GaussianState:
    """Apply a Gaussian unitary to side "A" or "B" of the partition; the other
    block is carried over bit for bit, and the output is checked again.  A
    2-row side maps in Python floats, on the rows the state and S keep."""
    return _map_side(state, side, (u.s, u._rows), u.m)


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel acting on covariance and mean as
    Gamma -> K Gamma K^T + M, d -> K d + d_bar.

    On construction M must be symmetric within `DEFAULT_TOL`, by the test
    `validate_cm` applies to a covariance matrix, and the channel completely
    positive: the Hermitian M + i(Delta - K Delta K^T) positive
    semidefinite, which implies M >= 0 and, for one mode, where
    K Delta K^T = det K Delta, reads det M >= (det K - 1)^2.  It may have no
    eigenvalue below minus the `_allowance` of max(max|K|^2, max|M|), the
    rule `is_symplectic` applies to a unitary, so the noiseless channels of
    squeezers up to r ~ 16 pass as their unitaries do.  Whether the matrix
    plus that allowance times I has a Cholesky factor (`_ldl`) decides, at
    every size; a rejection names the smallest eigenvalue.  max|K| may be at
    most 1e150, so that neither K Delta K^T nor max|K|^2 overflows.  K and M
    are copied once, as a state's arrays are, and every test reads their
    rows; ``m_noise`` keeps M's symmetric part, in that copy unless the
    symmetric part differs from M in some bit.  The channel keeps, privately,
    the rows of K and of that symmetric part, which the map of a 2-row side
    and `nfg_after_channel_closed_form` read.
    """

    k: np.ndarray
    m_noise: np.ndarray
    d_bar: np.ndarray | None = None

    def __post_init__(self):
        k, k_rows = _as_square_even(self.k, "K")
        m, m_rows = _as_square_even(self.m_noise, "M")
        if m.shape != k.shape:
            raise ValueError("M must match the shape of K")
        k_max = _map_peak(k_rows, "K")
        symmetric, m_sym = _symmetric_rows(m_rows)
        if not symmetric:
            raise ValueError("noise matrix M must be symmetric")
        if not _same_bits(m_sym, m_rows):  # else M is its symmetric part
            m = _frozen(np.array(m_sym))
        m_rows = m_sym
        allowance = _allowance(max(k_max**2, _max_abs(m_rows)))
        if len(k_rows) == 2:
            (k00, k01), (k10, k11) = k_rows
            (m00, m01), (m10, m11) = m_rows
            # Delta - K Delta K^T = (1 - det K) Delta
            loss = 1.0 - (k00 * k11 - k01 * k10)
            h = [[m00, complex(m01, loss)], [complex(m10, -loss), m11]]
        else:
            delta = symplectic_form(len(k_rows) // 2)
            h = (m + 1j * (delta - k @ delta @ k.T)).tolist()
        if _ldl(h, allowance) is None:
            least = float(np.linalg.eigvalsh(h)[0])
            raise ValueError(
                f"invalid channel: M + i(Delta - K Delta K^T) has eigenvalue {least:.6g} < 0"
            )
        d = _as_vector(self.d_bar, len(k), "d_bar")
        vars(self).update(k=k, m_noise=m, d_bar=d, _k_rows=k_rows, _m_rows=m_rows)

    @property
    def n_modes(self) -> int:
        return self.k.shape[0] // 2


def apply_channel(state: GaussianState, ch: GaussianChannel, side: str = "B") -> GaussianState:
    """Send subsystem ``side``, "A" or "B", through the channel.

    For side B this is A -> A, C -> C K^T, B -> K B K^T + M, and the B part of
    the mean becomes K d_B + d_bar; side A maps the A rows likewise.  The map
    is `apply_gaussian_unitary`'s, with the noise M added: a 2-row side maps
    in Python floats, on the rows the state and the channel keep.
    """
    return _map_side(state, side, (ch.k, ch._k_rows), ch.d_bar, (ch.m_noise, ch._m_rows))


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic diagonalization S Gamma S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)."""

    s: np.ndarray
    nus: np.ndarray  # descending
    degeneracy_flag: bool


#: Relative gap below which two symplectic eigenvalues count as degenerate.
_DEGENERACY_TOL = 1e-8


def _degenerate(nus: np.ndarray) -> bool:
    """True when two neighbours of the descending spectrum ``nus`` agree within
    `_DEGENERACY_TOL`, relative to the larger one or 1; never for a single
    mode, nor for a NaN.  Scalar arithmetic on the n values."""
    nus = nus.tolist()
    return any(abs(y - x) <= _DEGENERACY_TOL * max(x, 1.0) for x, y in zip(nus, nus[1:]))


def _symplectic_hermitian(chol: np.ndarray) -> np.ndarray:
    """i L^T Delta L for the Cholesky factor L of g = L L^T.

    L^T Delta L is similar to Delta g, so this Hermitian matrix has
    eigenvalues +-nu_i, the symplectic eigenvalues of g; `williamson` and,
    for three or more A modes, the degeneracy flag of `nfg_numeric` solve it.
    """
    return 1j * (chol.T @ symplectic_form(chol.shape[0] // 2) @ chol)


def _degenerate_4(l: list[list[float]]) -> bool:
    """`_degenerate` of the two symplectic eigenvalues of g = L L^T, for the
    4 x 4 lower factor L given as nested lists, in Python floats with no
    eigensolve (see `_spectrum_degenerate`).  Never for a NaN, nor for an
    overflowed product: an infinite scale reads not degenerate."""
    (l00, _, _, _), (_, l11, _, _), (l20, l21, l22, _), (l30, l31, l32, l33) = l
    # K = L^T Delta L above its diagonal; L's l10 drops out
    a = l00 * l11 + l20 * l31 - l30 * l21
    b, c = l20 * l32 - l30 * l22, l20 * l33
    d, e, f = l21 * l32 - l31 * l22, l21 * l33, l22 * l33
    gap = math.hypot(a - f, b + e, c - d)  # nu_1 - nu_2
    nu_1 = 0.5 * (math.hypot(a + f, b - e, c + d) + gap)
    return gap <= _DEGENERACY_TOL * max(nu_1, 1.0) < math.inf


def _spectrum_degenerate(state: GaussianState) -> bool:
    """`nfg_numeric`'s ``lower_bound_only``: `williamson(A).degeneracy_flag`
    of a correlated state's A block, from the symplectic spectrum alone, by
    `_degenerate`'s rule |nu_1 - nu_2| <= `_DEGENERACY_TOL` max(nu_1, 1).

    Two A modes take a closed form in Python floats on L_A
    (`GaussianState._chol_a`, which the correlation spectrum solves too),
    `_degenerate_4`.  K = L_A^T Delta L_A is antisymmetric 4 x 4, with
    entries a, b, c, d, e, f = K01, K02, K03, K12, K13, K23, each a sum of
    at most three products of L_A's lower triangle, and singular values
    nu_1, nu_1, nu_2, nu_2.  Its self-dual and anti-self-dual parts are
    p = (a + f, b - e, c + d) and q = (a - f, b + e, c - d), with
    |p|^2 + |q|^2 = |K|_F^2 = 2 (nu_1^2 + nu_2^2) and
    |p|^2 - |q|^2 = 4 Pf K = 4 nu_1 nu_2, because
    Pf K = af - be + cd = det L_A Pf Delta = det L_A > 0.  So |p| = nu_1 + nu_2
    and |q| = nu_1 - nu_2: the gap is the norm of differences of entries,
    with an error of ~eps nu_1, as the eigensolve's is, and the rule reads
    |q| <= `_DEGENERACY_TOL` max((|p| + |q|)/2, 1).  The textbook invariants
    of two modes (Serafini, Illuminati and De Siena, J. Phys. B 37, L21
    (2004)) give nu_1^2 - nu_2^2 = sqrt(D^2 - 4 det A), with the
    Delta-invariant D = det A_11 + det A_22 + 2 det A_12 over A's 2 x 2
    blocks; that difference of near-equal squares loses half the digits
    exactly where the gap is small, so they are not used.

    Three or more A modes take one eigensolve of `_symplectic_hermitian` on
    L_A, with no eigenvectors.  No symplectic S is built at any size.  A
    single A mode is never degenerate and a product state (C = 0) never
    flagged, so for those the flag factorizes nothing (A may be singular at
    double precision).
    """
    n = state.n_a
    if n == 1 or state._uncorrelated:
        return False
    if n == 2:
        return _degenerate_4(state._chol_a.tolist())
    return _degenerate(np.linalg.eigvalsh(_symplectic_hermitian(state._chol_a))[n:][::-1])


def williamson(gamma) -> WilliamsonDecomposition:
    """Williamson decomposition of a positive-definite covariance matrix.

    Returns a symplectic S with ``S Gamma S^T = direct_sum(nu_i * I_2)``, with
    the symplectic eigenvalues ``nu_i`` sorted in descending order.

    The computation sandwiches the symplectic form between the Cholesky
    factor of Gamma = L L^T: ``K = L^T Delta L`` is skew-symmetric, so ``iK``
    (`_symplectic_hermitian`) is Hermitian with eigenvalues +-nu_i.  One
    Hermitian eigensolve gives them in ascending order, so the top n,
    reversed, are nu in descending order.  An eigenvector x + iy of +nu
    satisfies K x = nu y and K y = -nu x with x orthogonal to y and
    |x| = |y|: each eigenspace of +nu is orthogonal to its conjugate, the
    eigenspace of -nu, even when it is degenerate.  The columns
    sqrt(2) (x, -y) therefore form an orthogonal O with
    O^T K O = direct_sum [[0, nu], [-nu, 0]].  Then ``S = D^{1/2} O^T L^{-1}``
    gives S Gamma S^T = D, and S Delta S^T = Delta because
    L^{-1} Delta L^{-T} = -K^{-1}.

    ``degeneracy_flag`` is set when two consecutive eigenvalues agree within
    `_DEGENERACY_TOL` (relative).  `nfg_numeric` applies the same rule to the
    A block's spectrum without decomposing it: in closed form for two modes,
    with no eigensolve, and for more by this eigensolve without its
    eigenvectors (`_spectrum_degenerate`).
    """
    g = _as_square_even(gamma, "covariance matrix")[0]
    g = _mid(g, g.T)
    n = g.shape[0] // 2
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix must be positive definite") from exc
    evals, v = np.linalg.eigh(_symplectic_hermitian(chol))
    nus, v = evals[n:][::-1], v[:, n:][:, ::-1]
    cols = np.empty((2 * n, 2 * n))
    cols[:, 0::2] = np.sqrt(2.0) * v.real
    cols[:, 1::2] = -np.sqrt(2.0) * v.imag
    s = np.repeat(np.sqrt(nus), 2)[:, None] * np.linalg.solve(chol.T, cols).T
    return WilliamsonDecomposition(_frozen(s), _frozen(nus), _degenerate(nus))


@dataclass(frozen=True)
class StandardFormParams:
    """Two-mode standard form parameters (a, b, c, d).

    The corresponding covariance matrix is ``[[a*I, diag(c,d)], [diag(c,d), b*I]]``.
    The parameters are physical when that matrix passes the Simon verdict of
    `validate_cm` (the rule `GaussianState` applies, at `DEFAULT_TOL`), and
    canonically oriented when c >= |d|.  Construction checks both.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if not all(math.isfinite(x) for x in (a, b, c, d)):
            raise ValueError("standard-form parameters must be finite")
        if not _verdict_4(_standard_rows(*map(float, (a, b, c, d))))[1]:
            raise ValueError(
                f"standard-form parameters are not physical: a={a}, b={b}, c={c}, d={d}"
            )
        if c < abs(d) - DEFAULT_TOL * max(1.0, abs(a), abs(b)):
            raise ValueError(f"canonical orientation requires c >= |d|, got c={c}, d={d}")


def _standard_rows(a: float, b: float, c: float, d: float) -> list[list[float]]:
    return [[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]]


def _local_frame(l: tuple[float, float, float, float], angle: float) -> np.ndarray:
    """R(angle) s for the `_cholesky_2x2` result ``l`` of a one-mode block,
    with s = sqrt(l00 l11) L^{-1} and R(t) = [[cos t, -sin t], [sin t, cos t]].

    det s = 1, so s and R(angle) s are symplectic, and s takes the block to
    l00 l11 I.  The diagonal of s is sqrt(l11/l00) and sqrt(l00/l11), so a
    block p I gives exactly the identity at angle 0.
    """
    l00, l10, l11, _ = l
    s00, s10, s11 = math.sqrt(l11 / l00), -l10 / math.sqrt(l00 * l11), math.sqrt(l00 / l11)
    co, si = math.cos(angle), math.sin(angle)
    return np.array([[co * s00 - si * s10, -si * s11], [si * s00 + co * s10, co * s11]])


def standard_form(state: GaussianState) -> tuple[StandardFormParams, np.ndarray, np.ndarray]:
    """Reduce a (1+1)-mode state to its two-mode standard form.

    Returns ``(params, s_a, s_b)`` where the local symplectics satisfy
    ``(s_a ⊕ s_b) Gamma (s_a ⊕ s_b)^T = [[a*I, diag(c,d)], [diag(c,d)^T, b*I]]``.

    Algorithm, in scalar arithmetic on the entries with no NumPy linear
    algebra (`_whiten` and `_local_frame`): with L_A, L_B the Cholesky
    factors of the A and B blocks, a = sqrt(det A) and s = sqrt(a) L_A^{-1}
    is symplectic with s A s^T = a I; B gives b likewise.  The cross block
    becomes sqrt(ab) W with W = L_A^{-1} C L_B^{-T}, the matrix whose
    singular values give the correlation spectrum.  Its SVD with both
    factors in SO(2) is W = R(phi) diag(p + q, p - q) R(theta), from
    `_svd_2x2`.  So c = sqrt(ab) (p + q) >= |d|, d = sqrt(ab) (p - q)
    carries the sign of det C, and the frames are R(phi)^T s_a and
    R(theta) s_b.  An input already in standard form (A = a I, B = b I,
    C = diag(c, d) with c >= |d|) comes back as it is, with exactly identity
    locals.  Any other input is first divided by `_even_power` of max|Gamma|
    and a, b, c, d multiplied back: that is exact, leaves W and the frames
    as they are, and keeps det A and det B finite for entries up to the
    float maximum.  Both the test and the division read the state's rows, in
    Python floats, whose division rounds as NumPy's does.  A block that does
    not factor at double precision raises `_singular`'s `ValueError`, and the
    parameters must pass the `StandardFormParams` verdict.
    """
    if state.n_a != 1 or state.n_b != 1:
        raise ValueError("standard form is defined for (1+1)-mode states")
    rows = state._rows
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = rows
    if a01 == b01 == c01 == c10 == 0.0 and a00 == a11 and b00 == b11 and c00 >= abs(c11):
        return StandardFormParams(a00, b00, c00, c11), np.eye(2), np.eye(2)
    unit = _even_power(max(a00, a11, b00, b11))  # max|Gamma|, as Gamma >= 0
    l_a, l_b, w = _whiten(rows, unit)
    p, q, u, v = _svd_2x2(w)
    a, b = math.sqrt(l_a[3]), math.sqrt(l_b[3])
    root = math.sqrt(a * b)
    params = StandardFormParams(a * unit, b * unit, root * (p + q) * unit, root * (p - q) * unit)
    return params, _local_frame(l_a, -0.5 * (u + v)), _local_frame(l_b, 0.5 * (u - v))
