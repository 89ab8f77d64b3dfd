"""Phase-space representation of Gaussian states and symplectic utilities.

Conventions used throughout the package:

* quadrature ordering is (q1, p1, q2, p2, ...);
* covariance matrices (CMs) hold the symmetrized second moments
  ``gamma_kl = <{R_k - <R_k>, R_l - <R_l>}>`` in dimensionless units, so the
  vacuum CM is the identity;
* a CM is physical iff ``Gamma + i*Delta >= 0``, equivalently all of its
  symplectic eigenvalues are >= 1 (for symmetric positive-definite Gamma);
* Gaussian unitaries act as ``Gamma -> S Gamma S^T``, ``d -> S d + m`` with
  ``S`` symplectic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "GaussianState",
    "GaussianUnitary",
    "StandardFormParams",
    "ValidationReport",
    "WilliamsonDecomposition",
    "apply_gaussian_unitary",
    "blocks",
    "is_symplectic",
    "standard_form",
    "state_from_params",
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
    if not np.all(np.isfinite(m)):
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


def _factorize(factor, *args):
    """``factor(*args)`` for a NumPy factorization or solve of covariance
    blocks; a block that does not factor raises a `ValueError` saying why.

    The matrices passed here are blocks of physical covariance matrices or
    means of two, so a failed factorization means the matrix is singular at
    double precision: a pure state squeezed so far that it is stored with a
    zero determinant (the TMSV at n_bar = 1e10 already).  No overlap of such
    a state, and so no measure, is defined in floating point.
    """
    try:
        return factor(*args)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "covariance matrix is singular at double precision "
            "(a pure state squeezed past what float64 resolves); "
            "its overlaps are undefined"
        ) from exc


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a covariance-matrix physicality check."""

    symmetric: bool
    symplectic_eigenvalues: np.ndarray  # descending
    positive_definite: bool
    physical: bool


def _verdict(g: np.ndarray) -> tuple[bool, np.ndarray, bool]:
    """The `validate_cm` verdict of a square, even, finite `g`:
    ``(symmetric, gs, physical)`` with ``gs`` the symmetric part of `g`.

    It runs the one eigensolve the verdict needs, the Hermitian one of the
    equilibrated Simon matrix; `validate_cm` adds the report-only ones.
    """
    scale = max(1.0, float(np.abs(g).max()))
    # half the asymmetry against half the tolerance: the same test, no overflow
    symmetric = float(np.abs(_mid(g, -g.T)).max()) <= 0.5 * DEFAULT_TOL * scale
    gs = _mid(g, g.T)
    diag = np.diag(gs)
    physical = bool(symmetric and np.all(diag > 0.0))
    if physical:
        root = 1.0 / np.sqrt(diag)
        simon = (gs + 1j * symplectic_form(g.shape[0] // 2)) * np.outer(root, root)
        physical = bool(np.linalg.eigvalsh(simon)[0] >= -DEFAULT_TOL)
    return symmetric, gs, physical


def validate_cm(gamma) -> ValidationReport:
    """Check whether `gamma` is a physical covariance matrix.

    The verdict combines symmetry within `DEFAULT_TOL` (relative to max|Gamma|)
    with Simon's criterion Gamma + i*Delta >= 0, tested on the equilibrated
    D^{-1/2} (Gamma + i*Delta) D^{-1/2} with D = diag(Gamma) > 0: its smallest
    eigenvalue must be >= -DEFAULT_TOL.  That matrix has unit diagonal however
    large Gamma is, so the tolerance means the same thing at every scale: a
    relative distance to the physical set.  (The singular two-mode matrix with
    a = b = c = -d, nu_min = 0, is that close for a >~ 3e4.)  Symplectic
    eigenvalues are the moduli of the eigenvalues of i*Delta*Gamma, reported
    once each, in descending order; ``positive_definite`` is the smallest
    eigenvalue of Gamma being > 0.  A pure state squeezed past double
    precision (n_bar >~ 1e8) is stored as a singular matrix, so it can read
    not positive definite with nu_min ~ 0 and still be physical within the
    tolerance.

    Only the Simon eigensolve decides ``physical``; the symplectic spectrum
    and ``positive_definite`` take two more eigensolves and serve the report.
    `GaussianState` therefore checks the verdict alone on construction and
    builds this full report only to explain a rejection.
    """
    g = _as_square_even(gamma, "covariance matrix")
    symmetric, gs, physical = _verdict(g)
    delta = symplectic_form(g.shape[0] // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(delta @ gs)))
    nus = moduli[::2][::-1]  # pairs collapse to one entry each, descending
    positive_definite = bool(np.linalg.eigvalsh(gs)[0] > 0.0)
    return ValidationReport(symmetric, _frozen(nus), positive_definite, physical)


#: Rounding allowance of `is_symplectic`, per unit of max|S|^2.  Products of
#: passive, squeezing and passive maps on 1-4 modes round S Delta S^T by at
#: most ~6 eps max|S|^2; a scaled copy (1 + e) S is off by ~2e.
_SYMPLECTIC_ROUNDING = 32.0 * float(np.finfo(float).eps)


def is_symplectic(s, tol: float = DEFAULT_TOL) -> bool:
    """True iff max|S Delta S^T - Delta| <= max(tol, 32 eps max|S|^2).

    Rounding in S Delta S^T grows like eps max|S|^2, so an absolute ``tol``
    alone rejects valid symplectics squeezed by r >~ 10 (max|S| = e^r).  The
    second term takes over only from max|S| ~ 1e3 (``tol`` = 1e-8); a
    symplectic scaled by 2 is still rejected up to max|S| = e^16.
    """
    s = _as_square_even(s, "matrix")
    delta = symplectic_form(s.shape[0] // 2)
    slack = max(tol, _SYMPLECTIC_ROUNDING * float(np.abs(s).max()) ** 2)
    return bool(np.abs(s @ delta @ s.T - delta).max() <= slack)


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: covariance matrix, mean vector, and an A|B partition.

    ``cm`` is 2(n_a+n_b) x 2(n_a+n_b) with the block layout
    ``[[A, C], [C^T, B]]`` where A covers the first 2*n_a rows.  ``mean``
    defaults to zero.  Construction checks the Simon verdict of `validate_cm`
    at `DEFAULT_TOL`, one Hermitian eigensolve, and freezes the arrays; the
    full report is built only to explain a rejection.  Every state, including
    the outputs of `apply_gaussian_unitary` and `apply_channel`, is checked
    this way.  Instances are immutable and safe to share between threads.

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
        if not _verdict(g)[2]:
            report = validate_cm(g)
            raise ValueError(
                "covariance matrix is not physical "
                f"(symmetric={report.symmetric}, "
                f"positive_definite={report.positive_definite}, "
                f"min symplectic eigenvalue={report.symplectic_eigenvalues[-1]:.6g})"
            )
        object.__setattr__(self, "cm", _frozen(g))
        object.__setattr__(self, "mean", _frozen(mean))

    @property
    def n_modes(self) -> int:
        return self.n_a + self.n_b

    def displaced(self, shift) -> "GaussianState":
        """Same state with the mean shifted by `shift`."""
        return GaussianState(self.cm, self.n_a, self.n_b, self.mean + np.asarray(shift, float))

    @cached_property
    def _correlation_spectrum(self) -> np.ndarray:
        """mu, the eigenvalues of B^{-1} X with X = C^T A^{-1} C, ascending.

        These are the squared canonical correlations between A and B.  With
        L the Cholesky factor of B they are the eigenvalues of the symmetric
        Z = L^{-1} X L^{-T}.  mu = 1 means det(B - X) = 0, a pure state
        squeezed past double precision, and rounding can push it above 1, so
        mu is clipped at 1; directions X does not reach (rank X <= 2 n_a)
        give mu = 0 up to rounding of either sign.  Empty when B has no
        modes.  Exactly zero, with nothing factorized, when C is zero (a
        product state, or no mode on A), so a product state scores 0 even with
        a block squeezed past double precision.  A correlated state whose A or
        B block is singular at double precision raises a `ValueError`.
        """
        a, b, c = blocks(self)
        if not c.any():
            return _frozen(np.zeros(2 * self.n_b))
        x = c.T @ _factorize(np.linalg.solve, a, c)
        x = _mid(x, x.T)
        chol = _factorize(np.linalg.cholesky, b)
        z = np.linalg.solve(chol, np.linalg.solve(chol, x).T)
        return _frozen(np.minimum(np.linalg.eigvalsh(z), 1.0))


def blocks(state: GaussianState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return copies of the (A, B, C) blocks of the covariance matrix.

    A and B are the covariance matrices of the reduced states on the two
    subsystems; C holds the cross correlations.
    """
    k = 2 * state.n_a
    g = state.cm
    return g[:k, :k].copy(), g[k:, k:].copy(), g[:k, k:].copy()


@dataclass(frozen=True)
class GaussianUnitary:
    """Phase-space action of a Gaussian unitary: Gamma -> S Gamma S^T, d -> S d + m.

    S must pass `is_symplectic` with ``tol`` = 1e-8, whose allowance grows
    with eps max|S|^2 from max|S| ~ 1e3 on, so squeezers up to the n_bar =
    1e13 states that `validate_cm` accepts (r ~ 16) are not rejected on
    rounding.
    """

    s: np.ndarray
    m: np.ndarray | None = None

    def __post_init__(self):
        s = _as_square_even(self.s, "symplectic matrix")
        if not is_symplectic(s, tol=1e-8):
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


def apply_gaussian_unitary(state: GaussianState, u: GaussianUnitary, side: str = "global") -> GaussianState:
    """Apply a Gaussian unitary to side "A" or "B" of the partition, or globally.

    For one side the other block of the covariance matrix is carried over
    untouched (bit for bit).  The output goes through the `GaussianState`
    constructor, so its Simon verdict is checked again.
    """
    s, m = u.s, u.m
    if side != "global":
        return _map_side(state, side, s, m)
    if s.shape[0] != state.cm.shape[0]:
        raise ValueError("unitary dimension does not match the state")
    return GaussianState(s @ state.cm @ s.T, state.n_a, state.n_b, s @ state.mean + m)


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
    mode."""
    return len(nus) > 1 and bool(
        np.any(np.abs(np.diff(nus)) <= _DEGENERACY_TOL * np.maximum(nus[:-1], 1.0))
    )


def _symplectic_hermitian(chol: np.ndarray) -> np.ndarray:
    """i L^T Delta L for the Cholesky factor L of g = L L^T.

    L^T Delta L is similar to Delta g, so this Hermitian matrix has
    eigenvalues +-nu_i, the symplectic eigenvalues of g; `williamson` and
    the degeneracy flag of `nfg_numeric` both solve it.
    """
    return 1j * (chol.T @ symplectic_form(chol.shape[0] // 2) @ chol)


def _spectrum_degenerate(a: np.ndarray) -> bool:
    """`williamson(a).degeneracy_flag` from the symplectic spectrum alone:
    one eigensolve of `_symplectic_hermitian`, with no eigenvectors and no
    symplectic S.  A single mode is never degenerate, so its block is not
    factorized at all (it may be singular at double precision)."""
    n = a.shape[0] // 2
    if n == 1:
        return False
    h = _symplectic_hermitian(_factorize(np.linalg.cholesky, a))
    return _degenerate(np.linalg.eigvalsh(h)[n:][::-1])


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
        if not all(np.isfinite([a, b, c, d])):
            raise ValueError("standard-form parameters must be finite")
        if not _verdict(_standard_cm(a, b, c, d))[2]:
            raise ValueError(
                f"standard-form parameters are not physical: a={a}, b={b}, c={c}, d={d}"
            )
        if c < abs(d) - DEFAULT_TOL * max(1.0, abs(a), abs(b)):
            raise ValueError(f"canonical orientation requires c >= |d|, got c={c}, d={d}")


def _standard_cm(a: float, b: float, c: float, d: float) -> np.ndarray:
    g = np.diag([a, a, b, b]).astype(float)
    g[0, 2] = g[2, 0] = c
    g[1, 3] = g[3, 1] = d
    return g


def state_from_params(p: StandardFormParams) -> GaussianState:
    """Build the zero-mean (1+1)-mode state with the standard-form CM of `p`."""
    return GaussianState(_standard_cm(p.a, p.b, p.c, p.d), 1, 1)


def _williamson_2x2(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-mode Williamson: symplectic s with s a s^T = nu*I, nu = sqrt(det a)."""
    nu = float(np.sqrt(np.linalg.det(a)))
    if a[0, 1] == 0.0 and a[1, 0] == 0.0:
        lam = np.array([a[0, 0], a[1, 1]])
        q = np.eye(2)
    else:
        lam, q = np.linalg.eigh(_mid(a, a.T))
        if np.linalg.det(q) < 0.0:
            q = q * np.array([1.0, -1.0])  # keep det +1 so s is symplectic
    return np.diag(np.sqrt(nu / lam)) @ q.T, nu


def standard_form(state: GaussianState) -> tuple[StandardFormParams, np.ndarray, np.ndarray]:
    """Reduce a (1+1)-mode state to its two-mode standard form.

    Returns ``(params, s_a, s_b)`` where the local symplectics satisfy
    ``(s_a ⊕ s_b) Gamma (s_a ⊕ s_b)^T = [[a*I, diag(c,d)], [diag(c,d)^T, b*I]]``.

    Algorithm: Williamson-diagonalize the A and B blocks with local
    symplectics, then diagonalize the resulting cross block with a two-sided
    rotation (an SVD with both factors forced into SO(2), which pushes any
    sign onto the second diagonal entry).  This lands on c = sigma_1 >= |d|
    with d carrying the sign of det C.  Inputs already in standard form come
    back with exactly identity locals.
    """
    if state.n_a != 1 or state.n_b != 1:
        raise ValueError("standard form is defined for (1+1)-mode states")
    g = state.cm
    s_a, a = _williamson_2x2(g[:2, :2])
    s_b, b = _williamson_2x2(g[2:, 2:])
    ct = s_a @ g[:2, 2:] @ s_b.T
    if ct[0, 1] == 0.0 and ct[1, 0] == 0.0 and ct[0, 0] >= abs(ct[1, 1]):
        c, d = float(ct[0, 0]), float(ct[1, 1])
    else:
        u, sig, vt = np.linalg.svd(ct)
        du = float(np.linalg.det(u))
        dv = float(np.linalg.det(vt))  # det(V) = det(V^T)
        s_a = np.diag([1.0, du]) @ u.T @ s_a
        s_b = np.diag([1.0, dv]) @ vt @ s_b
        c, d = float(sig[0]), float(du * dv * sig[1])
    return StandardFormParams(a, b, c, d), s_a, s_b
