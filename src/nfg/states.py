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
  channel's, are decided by one test, `_semidefinite`: up to 4 x 4, the
  (1+1)-mode states and the maps of up to two modes, whether the matrix
  plus its allowance times I has a Cholesky factor, in scalar arithmetic;
  beyond, its smallest eigenvalue.  A one-mode unitary is checked as
  |det S - 1|.  The same scalar factorization, `_ldl`, gives every overlap
  of `nfg.overlap` its determinant and mean term, at any size.
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


def _as_square_even(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even positive dimension, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _as_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a finite float vector of length ``n``; zeros if it is None."""
    if v is None:
        return np.zeros(n)
    v = np.asarray(v, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be a finite vector of length {n}, got {v}")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


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


def _whiten(g: list[list[float]]) -> tuple[tuple, tuple, tuple]:
    """``(l_a, l_b, w)`` for a (1+1)-mode covariance matrix ``g`` (nested
    lists), in scalar arithmetic: the `_cholesky_2x2` results of the A and B
    blocks and W = L_A^{-1} C L_B^{-T} as ``(w00, w01, w10, w11)``, by two
    forward substitutions.  Reads the lower triangles of A and B, as
    LAPACK's Cholesky does; a block that does not factor raises `_singular`'s
    `ValueError`.  The correlation spectrum and the standard form both start
    here.
    """
    (a00, _, c00, c01), (a10, a11, c10, c11), (_, _, b00, _), (_, _, b10, b11) = g
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


def _two_mode_spectrum(g: list[list[float]]) -> list[float]:
    """The correlation spectrum of a (1+1)-mode covariance matrix ``g``
    (nested lists), ascending and clipped at 1, in scalar arithmetic.

    The 2x2 case of `GaussianState._correlation_spectrum`: mu are the
    squared singular values p +- q (`_svd_2x2`) of the `_whiten` matrix
    W = L_A^{-1} C L_B^{-T}, so no LAPACK call runs.
    """
    p, q, _, _ = _svd_2x2(_whiten(g)[2])
    low, high = p - q, p + q
    return [min(low * low, 1.0), min(high * high, 1.0)]


def _whitened_spectrum(g: np.ndarray, chol_a: np.ndarray) -> np.ndarray:
    """The correlation spectrum of a covariance matrix ``g`` whose A block,
    its first ``len(chol_a)`` rows, has the lower Cholesky factor ``chol_a``:
    the squared singular values of W = L_A^{-1} C L_B^{-T}, ascending,
    clipped at 1, padded in front with zeros to the size of B and read-only.

    The generic case of `GaussianState._correlation_spectrum`, by two
    triangular solves and one SVD.  It takes L_A rather than A so that
    `_spectrum_degenerate`, which solves the same factor, can share it.
    """
    k = len(chol_a)
    y = np.linalg.solve(chol_a, g[:k, k:])  # L_A^{-1} C
    w_t = np.linalg.solve(_cholesky(g[k:, k:]), y.T)  # W^T = L_B^{-1} Y^T
    sigma = np.linalg.svd(w_t, compute_uv=False)[::-1]  # W's, ascending
    mu = np.zeros(len(g) - k)
    mu[mu.size - sigma.size :] = np.minimum(sigma * sigma, 1.0)
    mu.flags.writeable = False  # built here, so frozen in place, not copied
    return mu


def _max_abs(rows: list[list[float]]) -> float:
    """max|x| over the entries of a matrix given as nested lists."""
    return max(map(abs, itertools.chain.from_iterable(rows)))


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


#: Largest matrix, in rows, that `_semidefinite` tests by `_ldl`: (1+1)-mode
#: states and maps of up to two modes, the cut `_two_mode_spectrum` makes.
#: From 6 x 6 on NumPy's eigensolve is the faster: 7.7 against 10.6 us at
#: 6 x 6, 9.8 against 20 us at 8 x 8, on a 2-vCPU Intel Xeon host, while at
#: 4 x 4 the factorization takes 4.6 us and the eigensolve 6.1 us before the
#: array it needs is built.
_SCALAR_DIM = 4


def _ldl(h, shift: float) -> tuple[list[list], list[float]] | None:
    """The LDL^H factorization of h + shift I, for a Hermitian ``h`` given
    as nested lists, of which only the lower triangle is read:
    ``(conj_lower, pivots)``, the rows of conj(L) left of L's unit diagonal
    and the diagonal of D, or None at the first pivot that is not > 0 (a NaN
    included).  It runs by rows in Python scalar arithmetic, complex for a
    complex ``h`` and float for a real one.  `_semidefinite`, up to
    `_SCALAR_DIM` rows, and the overlaps of `nfg.overlap`, at every size,
    both factor here.
    """
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


def _semidefinite(h, shift: float) -> bool:
    """Whether the Hermitian ``h`` has no eigenvalue below -``shift``: the
    one positive-semidefiniteness test behind the Simon verdict and the
    channel check.  ``h`` is nested lists or an array.  A NaN entry
    answers False.

    Up to `_SCALAR_DIM` rows it asks whether h + shift I has a Cholesky
    factor, by the `_ldl` factorization: every pivot must be > 0.  In exact
    arithmetic that is lambda_min(h) > -shift, the eigenvalue rule but for
    the tie; the factorization is backward stable, so in floating point the
    two part only within a small multiple of eps max|h| of the threshold.
    Larger matrices take `np.linalg.eigvalsh`: lambda_min >= -shift.
    """
    if len(h) > _SCALAR_DIM:
        return bool(np.linalg.eigvalsh(np.asarray(h))[0] >= -shift)
    if isinstance(h, np.ndarray):
        h = h.tolist()
    return _ldl(h, shift) is not None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a covariance-matrix physicality check."""

    symmetric: bool
    symplectic_eigenvalues: np.ndarray  # descending
    positive_definite: bool
    physical: bool


def _verdict(g: np.ndarray) -> tuple[bool, np.ndarray | list[list[float]], bool]:
    """The `validate_cm` verdict of a square, even, finite `g`:
    ``(symmetric, gs, physical)`` with ``gs`` the symmetric part of `g`.

    `_semidefinite` decides Simon's criterion on the equilibrated matrix at
    `DEFAULT_TOL`.  Up to `_SCALAR_DIM` rows the symmetry and
    positive-diagonal tests and the equilibration run in scalar arithmetic
    on ``g.tolist()``, ``gs`` is nested lists and the test is a scalar
    Cholesky factorization; beyond, they run in NumPy and the test is one
    Hermitian eigensolve.  `validate_cm` adds the report-only eigensolves.
    """
    if g.shape[0] > _SCALAR_DIM:
        symmetric, gs = _symmetric_part(g)
        diag = np.diag(gs)
        if not (symmetric and np.all(diag > 0.0)):
            return symmetric, gs, False
        root = 1.0 / np.sqrt(diag)
        simon = (gs + 1j * symplectic_form(g.shape[0] // 2)) * np.outer(root, root)
        return symmetric, gs, _semidefinite(simon, DEFAULT_TOL)
    symmetric, gs = _symmetric_rows(g.tolist())
    diag = [row[i] for i, row in enumerate(gs)]
    if not (symmetric and all(x > 0.0 for x in diag)):
        return symmetric, gs, False
    root = [1.0 / math.sqrt(x) for x in diag]
    simon = [[x * (r * q) for x, q in zip(row, root)] for row, r in zip(gs, root)]
    for i in range(0, len(gs), 2):  # + i Delta, scaled alike
        w = root[i] * root[i + 1]
        simon[i][i + 1] = complex(simon[i][i + 1], w)
        simon[i + 1][i] = complex(simon[i + 1][i], -w)
    return symmetric, gs, _semidefinite(simon, DEFAULT_TOL)


def validate_cm(gamma) -> ValidationReport:
    """Check whether `gamma` is a physical covariance matrix.

    The verdict combines symmetry within `DEFAULT_TOL` (relative to max|Gamma|)
    with Simon's criterion Gamma + i*Delta >= 0, tested on the equilibrated
    D^{-1/2} (Gamma + i*Delta) D^{-1/2} with D = diag(Gamma) > 0: it must have
    no eigenvalue below -DEFAULT_TOL.  That matrix has unit diagonal however
    large Gamma is, so the tolerance means the same thing at every scale: a
    relative distance to the physical set.  (The singular two-mode matrix with
    a = b = c = -d, nu_min = 0, is that close for a >~ 3e4.)  Up to 4 x 4 the
    test is whether the matrix plus DEFAULT_TOL I has a Cholesky factor, in
    scalar arithmetic; larger matrices compare their smallest eigenvalue (see
    `_semidefinite`).  Symplectic eigenvalues are the moduli of the
    eigenvalues of i*Delta*Gamma, reported once each, in descending order;
    ``positive_definite`` is the smallest eigenvalue of Gamma being > 0.  A
    pure state squeezed past double precision (n_bar >~ 1e8) is stored as a
    singular matrix, so it can read not positive definite with nu_min ~ 0
    and still be physical within the tolerance.

    Only the Simon test decides ``physical``; the symplectic spectrum and
    ``positive_definite`` take two eigensolves and serve the report.
    `GaussianState` therefore checks the verdict alone on construction and
    builds this full report only to explain a rejection.
    """
    g = _as_square_even(gamma, "covariance matrix")
    return _report(g, _verdict(g))


def _report(g: np.ndarray, verdict: tuple) -> ValidationReport:
    """The `validate_cm` report of ``g`` around its `_verdict`."""
    symmetric, gs, physical = verdict
    gs = np.asarray(gs)
    delta = symplectic_form(g.shape[0] // 2)
    # Delta Gamma scaled by an even power of two at most max|Gamma|, so it is
    # finite up to the float maximum and the eigensolve, square roots too,
    # scales exactly
    scale = math.ldexp(1.0, (math.frexp(float(np.abs(gs).max()))[1] - 1) // 2 * 2)
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

    The allowance is `DEFAULT_TOL` up to max|S| ~ 375 and grows with the
    rounding of S Delta S^T beyond, so valid squeezers up to r ~ 16 pass and
    a symplectic scaled by 2 is still rejected there.  For one mode
    S Delta S^T = det S Delta, so the test reads |det S - 1| in scalar
    arithmetic.  An S with max|S| above 1e150 raises a `ValueError`, as a
    channel's K does.
    """
    s = _as_square_even(s, "matrix")
    rows = s.tolist()
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
    ``[[A, C], [C^T, B]]`` where A covers the first 2*n_a rows.  ``mean``
    defaults to zero.  Construction checks the Simon verdict of `validate_cm`
    at `DEFAULT_TOL`, a scalar Cholesky test up to (1+1) modes and one
    Hermitian eigensolve beyond, and freezes the arrays; the full report is
    built only to explain a rejection.  Every state, including the outputs
    of `apply_gaussian_unitary` and `apply_channel`, is checked this way.
    Instances are immutable and safe to share between threads.

    The correlation spectrum behind the measure and its bound (see
    `nfg.correlation`) is computed on first use and kept with the instance,
    which never changes; it is a read-only array, and two threads that miss
    it at once compute the same value.
    """

    cm: np.ndarray
    n_a: int
    n_b: int
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.n_a < 0 or self.n_b < 0 or self.n_a + self.n_b < 1:
            raise ValueError("need n_a, n_b >= 0 with at least one mode in total")
        g = _as_square_even(self.cm, "covariance matrix")
        dim = 2 * (self.n_a + self.n_b)
        if g.shape[0] != dim:
            raise ValueError(
                f"covariance matrix is {g.shape[0]}x{g.shape[0]}, "
                f"expected {dim}x{dim} for {self.n_a}+{self.n_b} modes"
            )
        mean = _as_vector(self.mean, dim, "mean")
        verdict = _verdict(g)
        if not verdict[2]:
            report = _report(g, verdict)
            raise ValueError(
                "covariance matrix is not physical "
                f"(symmetric={report.symmetric}, "
                f"positive_definite={report.positive_definite}, "
                f"min symplectic eigenvalue={report.symplectic_eigenvalues[-1]:.6g})"
            )
        object.__setattr__(self, "cm", _frozen(g))
        object.__setattr__(self, "mean", _frozen(mean))

    @cached_property
    def _correlation_spectrum(self) -> np.ndarray:
        """mu, the squared canonical correlations between A and B, ascending.

        With L_A, L_B the Cholesky factors of A and B, mu are the squared
        singular values of W = L_A^{-1} C L_B^{-T}, padded in front with zeros
        to 2 n_b entries: W^T W = L_B^{-1} X L_B^{-T} with X = C^T A^{-1} C,
        so mu are the eigenvalues of B^{-1} X, but W's conditioning is not
        squared.  A (1+1)-mode state takes the 2x2 case in closed form
        (`_two_mode_spectrum`); larger partitions take two triangular solves
        and one SVD (`_whitened_spectrum`).  `nfg_numeric`'s degeneracy flag
        fills this slot from the Cholesky factor of A it has already taken
        (`_spectrum_degenerate`), so that A is factored once.  Only the lower
        triangles of A and B are read.  mu = 1
        means det(B - X) = 0, a pure state squeezed past double precision,
        and rounding can push it above 1, so mu is clipped at 1; the
        2 n_b - 2 n_a directions X cannot reach when n_a < n_b (rank
        X <= 2 n_a) give mu exactly 0.  Empty when B has no modes.  Exactly
        zero, with nothing factorized, when C is zero (a product state, or
        no mode on A), so a product state scores 0 even with a block
        squeezed past double precision.  A correlated state whose A or B
        block does not factor at double precision raises `_singular`'s
        `ValueError`.
        """
        k = 2 * self.n_a
        g = self.cm
        if not g[:k, k:].any():
            return _frozen(np.zeros(2 * self.n_b))
        if self.n_a == self.n_b == 1:
            return _frozen(_two_mode_spectrum(g.tolist()))
        return _whitened_spectrum(g, _cholesky(g[:k, :k]))


@dataclass(frozen=True)
class GaussianUnitary:
    """Phase-space action of a Gaussian unitary: Gamma -> S Gamma S^T, d -> S d + m.

    S must pass `is_symplectic`, the map rule `GaussianChannel` applies too:
    its allowance grows with eps max|S|^2 from max|S| ~ 375 on, so
    squeezers up to the n_bar = 1e13 states that `validate_cm` accepts
    (r ~ 16) are not rejected on rounding.
    """

    s: np.ndarray
    m: np.ndarray | None = None

    def __post_init__(self):
        s = _as_square_even(self.s, "symplectic matrix")
        if not is_symplectic(s):
            raise ValueError("matrix does not satisfy S Delta S^T = Delta")
        object.__setattr__(self, "s", _frozen(s))
        object.__setattr__(self, "m", _frozen(_as_vector(self.m, s.shape[0], "m")))


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


def _map_side(
    state: GaussianState, side: str, k: np.ndarray, shift: np.ndarray, noise: np.ndarray | None = None
) -> GaussianState:
    """Map one side of the partition: the side's rows and columns of the
    covariance matrix by K, plus ``noise`` on its diagonal block, and its
    part of the mean to K d + shift.

    The other diagonal block and the other part of the mean are carried over
    bit for bit.  The output goes through the `GaussianState` constructor, so
    its Simon verdict is checked again.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    ka = 2 * state.n_a
    part = slice(0, ka) if side == "A" else slice(ka, None)
    mean = state.mean.copy()
    if k.shape[0] != mean[part].shape[0]:
        raise ValueError(f"dimension {k.shape[0]} does not match side {side}")
    mean[part] = k @ state.mean[part] + shift
    g = _act_on_side(state.cm, ka, side, k)
    if noise is not None:
        g[part, part] += noise
    return GaussianState(g, state.n_a, state.n_b, mean)


def apply_gaussian_unitary(state: GaussianState, u: GaussianUnitary, side: str) -> GaussianState:
    """Apply a Gaussian unitary to side "A" or "B" of the partition.

    The other block of the covariance matrix is carried over untouched (bit
    for bit).  The output goes through the `GaussianState` constructor, so
    its Simon verdict is checked again.
    """
    return _map_side(state, side, u.s, u.m)


def _complete_positivity_matrix(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Hermitian M + i(Delta - K Delta K^T) of a channel, as an array."""
    delta = symplectic_form(k.shape[0] // 2)
    return m + 1j * (delta - k @ delta @ k.T)


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
    squeezers up to r ~ 16 pass as their unitaries do.  `_semidefinite`
    decides: up to two modes, whether the matrix plus the allowance times I
    has a Cholesky factor, in scalar arithmetic; beyond, its smallest
    eigenvalue.  A NaN rejects, and a rejection names the smallest
    eigenvalue.  max|K| may be at most 1e150, so that neither K Delta K^T
    nor max|K|^2 overflows.
    """

    k: np.ndarray
    m_noise: np.ndarray
    d_bar: np.ndarray | None = None

    def __post_init__(self):
        k = _as_square_even(self.k, "K")
        m = _as_square_even(self.m_noise, "M")
        if m.shape != k.shape:
            raise ValueError("M must match the shape of K")
        k_rows = k.tolist()
        k_max = _map_peak(k_rows, "K")
        symmetric, m_rows = _symmetric_rows(m.tolist())
        if not symmetric:
            raise ValueError("noise matrix M must be symmetric")
        m = np.array(m_rows)
        allowance = _allowance(max(k_max**2, _max_abs(m_rows)))
        if len(k_rows) == 2:
            (k00, k01), (k10, k11) = k_rows
            (m00, m01), (m10, m11) = m_rows
            # Delta - K Delta K^T = (1 - det K) Delta
            loss = 1.0 - (k00 * k11 - k01 * k10)
            h = [[m00, complex(m01, loss)], [complex(m10, -loss), m11]]
        else:
            h = _complete_positivity_matrix(k, m)
        if not _semidefinite(h, allowance):
            least = float(np.linalg.eigvalsh(_complete_positivity_matrix(k, m))[0])
            raise ValueError(
                f"invalid channel: M + i(Delta - K Delta K^T) has eigenvalue {least:.6g} < 0"
            )
        d = _as_vector(self.d_bar, k.shape[0], "d_bar")
        for name, arr in (("k", k), ("m_noise", m), ("d_bar", d)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n_modes(self) -> int:
        return self.k.shape[0] // 2


def apply_channel(state: GaussianState, ch: GaussianChannel, side: str = "B") -> GaussianState:
    """Send subsystem ``side``, "A" or "B", through the channel.

    For side B this is A -> A, C -> C K^T, B -> K B K^T + M, and the B part of
    the mean becomes K d_B + d_bar; side A maps the A rows likewise.  The
    other diagonal block is carried over untouched.  The map is the one
    `apply_gaussian_unitary` uses for one side, with the noise M added.
    """
    return _map_side(state, side, ch.k, ch.d_bar, ch.m_noise)


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
    eigenvalues +-nu_i, the symplectic eigenvalues of g; `williamson` and
    the degeneracy flag of `nfg_numeric` both solve it.
    """
    return 1j * (chol.T @ symplectic_form(chol.shape[0] // 2) @ chol)


def _spectrum_degenerate(state: GaussianState) -> bool:
    """`nfg_numeric`'s ``lower_bound_only``: `williamson(A).degeneracy_flag`
    of a correlated state's A block, from the symplectic spectrum alone.

    One eigensolve of `_symplectic_hermitian`, with no eigenvectors and no
    symplectic S.  The flag and the correlation spectrum share A's Cholesky
    factor L_A: a state that has not computed its spectrum yet gets it here,
    by `_whitened_spectrum` from the same L_A, into the slot of its cached
    property, so the measure and the flag factor A once.  A single A mode is
    never degenerate and a product state (C = 0) never flagged, so for those
    the flag factorizes nothing (A may be singular at double precision).
    """
    n, k = state.n_a, 2 * state.n_a
    g = state.cm
    if n == 1 or not g[:k, k:].any():
        return False
    chol = _cholesky(g[:k, :k])
    degenerate = _degenerate(np.linalg.eigvalsh(_symplectic_hermitian(chol))[n:][::-1])
    if "_correlation_spectrum" not in vars(state):
        vars(state)["_correlation_spectrum"] = _whitened_spectrum(g, chol)
    return degenerate


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
    A block's spectrum without decomposing it.
    """
    g = _as_square_even(gamma, "covariance matrix")
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
        if not _verdict(_standard_cm(a, b, c, d))[2]:
            raise ValueError(
                f"standard-form parameters are not physical: a={a}, b={b}, c={c}, d={d}"
            )
        if c < abs(d) - DEFAULT_TOL * max(1.0, abs(a), abs(b)):
            raise ValueError(f"canonical orientation requires c >= |d|, got c={c}, d={d}")


def _standard_cm(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array(
        [[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]], dtype=float
    )


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
    locals.  A block that does not factor at double precision raises
    `_singular`'s `ValueError`, and the parameters must pass the
    `StandardFormParams` verdict.
    """
    if state.n_a != 1 or state.n_b != 1:
        raise ValueError("standard form is defined for (1+1)-mode states")
    cm = state.cm.tolist()
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = cm
    if a01 == b01 == c01 == c10 == 0.0 and a00 == a11 and b00 == b11 and c00 >= abs(c11):
        return StandardFormParams(a00, b00, c00, c11), np.eye(2), np.eye(2)
    l_a, l_b, w = _whiten(cm)
    p, q, u, v = _svd_2x2(w)
    a, b = math.sqrt(l_a[3]), math.sqrt(l_b[3])
    root = math.sqrt(a * b)
    params = StandardFormParams(a, b, root * (p + q), root * (p - q))
    return params, _local_frame(l_a, -0.5 * (u + v)), _local_frame(l_b, 0.5 * (u - v))
