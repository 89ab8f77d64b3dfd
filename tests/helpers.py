"""Shared builders for randomized property tests."""

import math
from typing import NamedTuple

import mpmath
import numpy as np
import scipy.linalg as la

from nfg import (
    GaussianChannel,
    GaussianState,
    GaussianUnitary,
    StandardFormParams,
    apply_gaussian_unitary,
    c_squared,
    symplectic_form,
    williamson,
)
from nfg import fock
from nfg.fock import FockDensityMatrix
from nfg.overlap import _clamp
from nfg.states import (
    _DEGENERACY_TOL,
    DEFAULT_TOL,
    _act_on_side,
    _cholesky,
    _even_power,
    _frozen,
    _ldl,
    _ldl_rows,
    _mid,
    _symmetric_part,
    _symmetric_rows,
    _symplectic_hermitian,
    _two_mode_spectrum,
    _zeros,
)


def random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.4) -> np.ndarray:
    """Random symplectic via the exponential of a Hamiltonian matrix."""
    h = scale * rng.normal(size=(2 * n, 2 * n))
    return la.expm(symplectic_form(n) @ (0.5 * (h + h.T)))


def random_cm(rng: np.random.Generator, n: int, nu_max: float = 3.0, nus=None) -> np.ndarray:
    """Random physical CM: symplectic conjugation of a Williamson form, with
    symplectic eigenvalues `nus` or, by default, drawn from [1, nu_max)."""
    nus = rng.uniform(1.0, nu_max, n) if nus is None else np.asarray(nus, float)
    s = random_symplectic(rng, n)
    cm = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return 0.5 * (cm + cm.T)


def random_state(
    rng: np.random.Generator, n_a: int = 1, n_b: int = 1, displaced: bool = False
) -> GaussianState:
    n = n_a + n_b
    mean = 2.0 * rng.normal(size=2 * n) if displaced else None
    return GaussianState(random_cm(rng, n), n_a, n_b, mean)


def with_ancilla(state: GaussianState, side: str, ancilla: np.ndarray) -> GaussianState:
    """`state` with the uncorrelated one-mode covariance `ancilla` appended
    as the last mode of `side`."""
    cm = la.block_diag(state.cm, ancilla)
    if side == "B":
        return GaussianState(cm, state.n_a, state.n_b + 1)
    ka, n = 2 * state.n_a, cm.shape[0]
    perm = np.r_[:ka, n - 2 : n, ka : n - 2]
    return GaussianState(cm[np.ix_(perm, perm)], state.n_a + 1, state.n_b)


def random_channel(rng: np.random.Generator) -> GaussianChannel:
    """Random valid single-mode channel with a 5% margin on det M."""
    k = rng.normal(size=(2, 2))
    r = rng.normal(size=(2, 2))
    m0 = r @ r.T + 1e-3 * np.eye(2)
    lam = 1.05 * abs(np.linalg.det(k) - 1.0) / np.sqrt(np.linalg.det(m0))
    return GaussianChannel(k, lam * m0)


def random_dilation(
    rng: np.random.Generator, n: int, scale: float = 0.4, nu_max: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Dilation of a random n-mode Gaussian channel: a random symplectic on
    the n system modes plus n environment modes (`random_symplectic` with
    `scale`; small scales give near-identity channels), and the thermal
    covariance matrix of the environment."""
    env = np.diag(np.repeat(rng.uniform(1.0, nu_max, n), 2))
    return random_symplectic(rng, 2 * n, scale), env


def dilation_channel(rng: np.random.Generator, n: int, scale: float = 0.4) -> GaussianChannel:
    """The n-mode channel of `random_dilation`: K is the system block of its
    symplectic and M the environment's covariance seen through the cross
    block."""
    s, env = random_dilation(rng, n, scale)
    k, k_env = s[: 2 * n, : 2 * n], s[: 2 * n, 2 * n :]
    return GaussianChannel(k, k_env @ env @ k_env.T)


def through_thermal_dilation(
    rng: np.random.Generator, state: GaussianState, scale: float = 0.4, nu_max: float = 3.0
) -> GaussianState:
    """Send subsystem B through the channel of `random_dilation`: B and the
    environment pass through its symplectic, then the environment is traced
    out."""
    ka, kb = 2 * state.n_a, 2 * state.n_b
    s_be, env = random_dilation(rng, state.n_b, scale, nu_max)
    s = la.block_diag(np.eye(ka), s_be)
    out = (s @ la.block_diag(state.cm, env) @ s.T)[: ka + kb, : ka + kb]
    return GaussianState(0.5 * (out + out.T), state.n_a, state.n_b)


def standard_state(p: StandardFormParams) -> GaussianState:
    """The zero-mean (1+1)-mode state with the standard-form covariance
    matrix [[a I, diag(c, d)], [diag(c, d), b I]] of ``p``, written out."""
    a, b, c, d = p.a, p.b, p.c, p.d
    cm = [[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]]
    return GaussianState(np.array(cm), 1, 1)


def apply_global(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """``state`` after the Gaussian unitary ``u`` on all of its modes:
    Gamma -> S Gamma S^T and d -> S d + m, with the partition kept."""
    return GaussianState(u.s @ state.cm @ u.s.T, state.n_a, state.n_b, u.s @ state.mean + u.m)


def literal_matrix(dm: FockDensityMatrix) -> np.ndarray:
    """The matrix ``dm``'s expansion stands for, on its support: |psi><psi|
    or diag p, cutoff x cutoff.  A two-mode state's support is the pairs
    |kk>, which `dense` places in the product basis."""
    v = dm.entries
    return np.outer(v, v.conj()) if dm.pure else np.diag(v)


def dense(dm: FockDensityMatrix) -> np.ndarray:
    """The full density matrix of ``dm``: `literal_matrix` for one mode, and
    for two modes the cutoff^2 x cutoff^2 matrix with that block at the
    product-basis indices k * cutoff + k of |kk>, zero elsewhere.  For small
    two-mode cutoffs only."""
    block = literal_matrix(dm)
    if not dm.two_mode:
        return block
    c = dm.cutoff
    pairs = np.arange(c) * (c + 1)
    full = np.zeros((c * c, c * c), block.dtype)
    full[np.ix_(pairs, pairs)] = block
    return full


def dense_overlap(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """tr(rho sigma) as the literal trace of the product of the two `dense`
    matrices."""
    return float(np.einsum("ij,ji->", dense(rho), dense(sigma)).real)


class ReferenceDM(NamedTuple):
    """A literal-expansion build: the matrix on the state's support (see
    `literal_matrix`) and 1 - its trace, clamped at 0."""

    cutoff: int
    matrix: np.ndarray
    trace_deficit: float


def _hermitian_reference(cutoff: int, matrix: np.ndarray) -> ReferenceDM:
    """Check that a literal build is Hermitian, then read its deficit off the
    diagonal, as the oracle did when it stored matrices."""
    herm_err = np.abs(matrix - matrix.conj().T).max()
    if herm_err > 1e-12:
        raise ValueError(f"construction produced a non-Hermitian matrix ({herm_err:.3g})")
    deficit = max(0.0, 1.0 - float(np.diagonal(matrix).sum().real))
    return ReferenceDM(cutoff, matrix, deficit)


def _reference_builds() -> dict:
    """Each family's matrix at cutoff c, built as the oracle did before it
    stored expansions: the literal expansion's outer product or diagonal,
    checked to be Hermitian.  A two-mode matrix is its block on the |kk>."""

    def thermal(n_bar, c):
        p = np.exp(fock._log_powers(n_bar / (1.0 + n_bar), np.arange(c))) / (1.0 + n_bar)
        return _hermitian_reference(c, np.diag(p))

    def coherent(alpha, c):
        alpha = complex(alpha)
        k = np.arange(c)
        log_mod = (
            fock._log_powers(abs(alpha), k) - 0.5 * fock._log_factorials(c) - 0.5 * abs(alpha) ** 2
        )
        psi = np.exp(log_mod) * np.exp(1j * k * np.angle(alpha))
        return _hermitian_reference(c, np.outer(psi, psi.conj()))

    def squeezed(r, c):
        psi = fock._squeezed_amplitudes(float(r), c)
        return _hermitian_reference(c, np.outer(psi, psi))

    def tmsv(r, c):
        lam = np.exp(fock._log_powers(np.tanh(r), np.arange(c))) / np.cosh(r)
        return _hermitian_reference(c, np.outer(lam, lam))

    return {"thermal": thermal, "coherent": coherent, "squeezed": squeezed, "tmsv": tmsv}


def reference_adaptive_dm(family: str, x) -> ReferenceDM:
    """Independent check of the Fock oracle's adaptive cutoff: the doubling
    from `fock._START` that builds the full matrix at every step and reads
    its trace, stopping within `fock._GUARD` or raising at `fock._CEILING`.
    This is the search the oracle ran before it read the diagonal weights."""
    build = _reference_builds()[family]
    c = fock._START
    while True:
        dm = build(x, c)
        if dm.trace_deficit <= fock._GUARD:
            return dm
        if c >= fock._CEILING:
            raise ValueError(
                f"trace deficit {dm.trace_deficit:.3g} still above {fock._GUARD} "
                f"at the cutoff ceiling {fock._CEILING}"
            )
        c = min(2 * c, fock._CEILING)


def brute_force_nfg(state: GaussianState, points: int) -> np.ndarray:
    """Independent check of the measure's supremum: c_squared between `state`
    and its copy with the A modes rotated in A's Williamson frame, on a grid
    of `points` angles per A mode spanning [0, pi/2].

    Entry ``[i, j, ...]`` holds the score at angles ``(axis[i], axis[j], ...)``,
    so ``[-1, ..., -1]`` is the all-pi/2 corner.
    """
    s = williamson(state.cm[: 2 * state.n_a, : 2 * state.n_a]).s
    axis = np.linspace(0.0, np.pi / 2, points)
    scores = np.empty((points,) * state.n_a)
    for idx in np.ndindex(scores.shape):
        rot = la.block_diag(*[rotation(axis[i]) for i in idx])
        u = GaussianUnitary(np.linalg.solve(s, rot @ s))
        scores[idx] = c_squared(state, apply_gaussian_unitary(state, u, "A"))
    return scores


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def chol_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor L of the symmetric part of ``m`` and its
    log-determinant, 2 sum log diag(L), by NumPy's Cholesky: the path
    `nfg.overlap` took above 4 x 4 before it ran `_ldl` at every size.  A
    matrix singular at double precision raises `_singular`'s `ValueError`."""
    chol = _cholesky(_mid(m, m.T))
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def nfg_theta_objective(state: GaussianState, theta: float) -> float:
    """Objective 1 - sqrt(det G det G_S)/det((G+G_S)/2) at rotation angle theta.

    ``G_S`` is the covariance matrix after rotating mode A by ``theta``.  For
    a state in standard form this equals
    1 - (ab-c^2)(ab-d^2) / ((ab-c^2*n0)(ab-d^2*n0)) with n0 = (1+cos theta)/2,
    so it is 0 at theta = 0 and reaches the closed-form value at theta = pi/2,
    nondecreasing in between.  The rotation is symplectic, so det G_S = det G
    and the value is 1 - det G / det((G+G_S)/2), from two Cholesky
    factorizations: the literal objective, an independent check of the
    correlation spectrum.  Clamped into [0, 1) like `NfgResult` values.
    """
    if state.n_a != 1 or state.n_b != 1:
        raise ValueError("theta objective is defined for (1+1)-mode states")
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    g = state.cm
    gs = _act_on_side(g, 2, "A", rotation(theta))
    return _clamp(-float(np.expm1(chol_logdet(g)[1] - chol_logdet(_mid(g, gs))[1])))


def reference_log_overlap(rho: GaussianState, sigma: GaussianState) -> float:
    """Independent check of the scalar overlap: log tr(rho sigma) by NumPy's
    Cholesky (`chol_logdet`, then a triangular solve for the mean term), at
    every size."""
    chol, logdet = chol_logdet(_mid(rho.cm, sigma.cm))
    log = -0.5 * logdet
    delta = rho.mean - sigma.mean
    if delta.any():
        z = np.linalg.solve(chol, delta)
        log -= 0.5 * float(z @ z)
    return log


def array_mid_factor(v1: np.ndarray, v2: np.ndarray) -> tuple[list[list], list[float]] | None:
    """The factor the overlap took before it read the states' rows: `_ldl`
    of the array midpoint sym((V1 + V2)/2), from two `_mid` calls on the
    covariance matrices.  The rows-based overlap must give its bits."""
    m = _mid(v1, v2)
    return _ldl(_mid(m, m.T).tolist(), 0.0)


def array_log_overlap(rho: GaussianState, sigma: GaussianState) -> float:
    """log tr(rho sigma) by the overlap's arithmetic before it read the
    states' rows: `array_mid_factor`, then the log pivots and the mean term
    by forward substitution.  The rows-based overlap must give its bits."""
    lower, pivots = array_mid_factor(rho.cm, sigma.cm)
    logdet = 0.0
    for d in pivots:
        logdet += math.log(d)
    log = -0.5 * logdet
    delta = [x - y for x, y in zip(rho.mean.tolist(), sigma.mean.tolist())]
    if any(delta):
        quad, z = 0.0, []
        for l_row, d, x in zip(lower, pivots, delta):
            for l_ij, z_j in zip(l_row, z):
                x -= l_ij * z_j
            z.append(x)
            quad += x * x / d
        log -= 0.5 * quad
    return log


def float_bits(values) -> list[str]:
    """The bits of floats, or of nested lists and tuples of them, as
    `float.hex` strings in row order: equal lists mean equal bits, the sign
    of zero included."""
    if isinstance(values, (list, tuple)):
        return [bits for v in values for bits in float_bits(v)]
    return [float(values).hex()]


def planted_degenerate_state(rng: np.random.Generator, n_a: int, n_b: int) -> GaussianState:
    """Random (n_a+n_b)-mode state whose A block has the symplectic spectrum
    nu (n_a-fold), under random local symplectics on A and on B.

    A random CM is brought to A's Williamson frame, its A block is raised to
    nu I with nu the largest symplectic eigenvalue of A (adding the noise
    diag(nu - nu_i) on A keeps it physical), and the local symplectics are
    applied last.
    """
    ka = 2 * n_a
    g = random_cm(rng, n_a + n_b)
    w = williamson(g[:ka, :ka])
    s = la.block_diag(w.s, np.eye(g.shape[0] - ka))
    g = s @ g @ s.T
    g[:ka, :ka] = w.nus[0] * np.eye(ka)
    s = la.block_diag(random_symplectic(rng, n_a), random_symplectic(rng, n_b))
    g = s @ g @ s.T
    return GaussianState(0.5 * (g + g.T), n_a, n_b)


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-random k x k unitary: QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved onto Q."""
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def passive_stabilizer(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The passive unitary U on A's modes as a symplectic acting on A.

    With a = (q + ip)/sqrt(2) and U = X + iY, a -> U a maps q -> Xq - Yp and
    p -> Yq + Xp, a real orthogonal symplectic O in interleaved (q, p) order.
    ``s`` is A's Williamson symplectic (s A s^T = nu I), and S^{-1} O S
    leaves A invariant because O commutes with nu I.  U = e^{i phi} on one
    mode is `rotation(-phi)`.
    """
    k = u.shape[0]
    o = np.empty((2 * k, 2 * k))
    o[0::2, 0::2] = o[1::2, 1::2] = u.real
    o[0::2, 1::2] = -u.imag
    o[1::2, 0::2] = u.imag
    return np.linalg.solve(s, o @ s)


def random_passive_stabilizer(
    rng: np.random.Generator, s: np.ndarray, max_phase: float = np.pi / 2
) -> np.ndarray:
    """`passive_stabilizer` of U = V e^{i phi} V^dagger, V Haar-random and the
    eigenphases phi uniform in [-max_phase, max_phase]."""
    k = s.shape[0] // 2
    v = haar_unitary(rng, k)
    phases = rng.uniform(-max_phase, max_phase, k)
    return passive_stabilizer(s, (v * np.exp(1j * phases)) @ v.conj().T)


def squeezed_block(r: float) -> np.ndarray:
    """A pure mode squeezed by r along an axis at angle 0.7; from r ~ 10 it
    is stored singular (or indefinite) at double precision."""
    rot = rotation(0.7)
    return rot @ np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)]) @ rot.T


def squeezed_product(r: float, side: str) -> GaussianState:
    """(1+1) product of `squeezed_block(r)` on ``side`` and a thermal 3 I."""
    pair = (squeezed_block(r), 3.0 * np.eye(2))
    return GaussianState(la.block_diag(*(pair if side == "A" else pair[::-1])), 1, 1)


def stream_shaped_cm(rng: np.random.Generator, log_n_bar_max: float = 5.0, nus=None) -> np.ndarray:
    """The covariance matrix of a (1+1) state shaped like the benchmark's
    request stream: local squeezers and rotations after a two-mode squeezer
    and a beam splitter, on thermal modes with n_bar log-uniform over
    1e-3..10**log_n_bar_max, or with symplectic eigenvalues `nus`."""
    if nus is None:
        nus = 1.0 + 2.0 * 10.0 ** rng.uniform(-3.0, log_n_bar_max, 2)
    local = [
        rotation(rng.uniform(0.0, 2 * np.pi)) @ np.diag(np.exp([-r, r]))
        @ rotation(rng.uniform(0.0, 2 * np.pi))
        for r in rng.uniform(0.0, 0.5, 2)
    ]
    r, t = rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi / 2)
    ch, sh, co, si = np.cosh(r), np.sinh(r), np.cos(t), np.sin(t)
    squeezer = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    splitter = np.array([[co, 0, si, 0], [0, co, 0, si], [-si, 0, co, 0], [0, -si, 0, co]])
    s = np.zeros((4, 4))
    s[:2, :2], s[2:, 2:] = local
    s = s @ squeezer @ splitter
    g = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return 0.5 * (g + g.T)


def stream_shaped_state(rng: np.random.Generator) -> GaussianState:
    """The `stream_shaped_cm` state, n_bar up to 1e5."""
    return GaussianState(stream_shaped_cm(rng), 1, 1)


def reference_spectrum(state: GaussianState) -> np.ndarray:
    """The correlation spectrum as the read-only array the library built
    before it became a tuple, both branches as they were: a (1+1) C = 0 test
    on the rows and `_two_mode_spectrum`, else a NumPy C = 0 test, two
    triangular solves, one SVD and zeros padded in front."""
    if state.n_a == state.n_b == 1:
        rows = state._rows
        (_, _, c00, c01), (_, _, c10, c11) = rows[0], rows[1]
        if not (c00 or c01 or c10 or c11):
            return _zeros(2)
        return _frozen(np.array(_two_mode_spectrum(rows)))
    k = 2 * state.n_a
    g = state.cm
    if not g[:k, k:].any():
        return _zeros(2 * state.n_b)
    y = np.linalg.solve(state._chol_a, g[:k, k:])  # L_A^{-1} C
    w_t = np.linalg.solve(_cholesky(g[k:, k:]), y.T)  # W^T = L_B^{-1} Y^T
    sigma = np.linalg.svd(w_t, compute_uv=False)[::-1]  # W's, ascending
    mu = np.zeros(2 * state.n_b)
    mu[mu.size - sigma.size :] = np.minimum(sigma * sigma, 1.0)
    return _frozen(mu)


def williamson_2x2(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-mode Williamson by eigendecomposition: symplectic s with
    s a s^T = nu I, nu = sqrt(det a)."""
    nu = float(np.sqrt(np.linalg.det(a)))
    if a[0, 1] == 0.0 and a[1, 0] == 0.0:
        lam = np.array([a[0, 0], a[1, 1]])
        q = np.eye(2)
    else:
        lam, q = np.linalg.eigh(0.5 * a + 0.5 * a.T)
        if np.linalg.det(q) < 0.0:
            q = q * np.array([1.0, -1.0])  # keep det +1 so s is symplectic
    return np.diag(np.sqrt(nu / lam)) @ q.T, nu


def reference_standard_form(
    state: GaussianState,
) -> tuple[StandardFormParams, np.ndarray, np.ndarray]:
    """Independent check of `nfg.standard_form` (and, through
    `nfg_closed_form`, of `nfg_two_mode`, which shares the whitened cross
    block with it): `williamson_2x2` on the A and B blocks, then an SVD of
    the transformed cross block with both factors forced into SO(2), which
    pushes any sign onto d.  This is the eigensolve-and-SVD algorithm the
    library used before its scalar standard form."""
    g = state.cm
    s_a, a = williamson_2x2(g[:2, :2])
    s_b, b = williamson_2x2(g[2:, 2:])
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


def reference_verdict(g) -> tuple[np.ndarray, np.ndarray]:
    """Independent check of the Simon verdict `GaussianState` applies, on a
    covariance matrix or a stack of them: ``(physical, margin)`` by the
    Hermitian eigensolve the library used before its scalar Cholesky test,
    with its arithmetic.  ``margin`` is the smallest eigenvalue of the
    equilibrated D^{-1/2} (Gamma + i Delta) D^{-1/2} plus `DEFAULT_TOL`, so
    ``physical`` is ``margin >= 0``; it is NaN where the symmetry or the
    positive-diagonal test already rejects."""
    g = np.asarray(g, dtype=float)
    gt = np.swapaxes(g, -1, -2)
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
    symmetric = np.abs(0.5 * g - 0.5 * gt).max(axis=(-2, -1)) <= 0.5 * DEFAULT_TOL * scale
    gs = 0.5 * g + 0.5 * gt
    diag = np.diagonal(gs, axis1=-2, axis2=-1)
    screened = symmetric & np.all(diag > 0.0, axis=-1)
    root = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    outer = root[..., :, None] * root[..., None, :]
    simon = (gs + 1j * symplectic_form(g.shape[-1] // 2)) * outer
    margin = np.where(screened, np.linalg.eigvalsh(simon)[..., 0] + DEFAULT_TOL, np.nan)
    return screened & (margin >= 0.0), margin


def loop_simon(g: np.ndarray) -> tuple[bool, list[list] | None]:
    """The Simon matrix of a 2 x 2 or 4 x 4 ``g`` by the loops the library
    ran before it wrote the verdict out: ``(symmetric, simon)``, from
    `_symmetric_rows`, with ``simon`` the full equilibrated
    D^{-1/2} (Gamma + i Delta) D^{-1/2} as nested lists, or None where the
    symmetry or positive-diagonal test rejects."""
    symmetric, gs = _symmetric_rows(g.tolist())
    diag = [row[i] for i, row in enumerate(gs)]
    if not (symmetric and all(x > 0.0 for x in diag)):
        return symmetric, None
    root = [1.0 / math.sqrt(x) for x in diag]
    simon = [[x * (r * q) for x, q in zip(row, root)] for row, r in zip(gs, root)]
    for i in range(0, len(gs), 2):  # + i Delta, scaled alike
        w = root[i] * root[i + 1]
        simon[i][i + 1] = complex(simon[i][i + 1], w)
        simon[i + 1][i] = complex(simon[i + 1][i], -w)
    return symmetric, simon


def loop_verdict(g: np.ndarray) -> tuple[bool, bool]:
    """`nfg.states._verdict` of a 2 x 2 or 4 x 4 ``g`` by the loops: the
    `loop_simon` matrix factored by the row loop `_ldl_rows`.  The
    written-out verdict must return the same ``(symmetric, physical)``."""
    symmetric, simon = loop_simon(g)
    return symmetric, simon is not None and _ldl_rows(simon, DEFAULT_TOL) is not None


def reference_symmetric_part(g: np.ndarray) -> tuple[bool, np.ndarray]:
    """`nfg.states._symmetric_part` as two `_mid` calls, the expression the
    library used before it halved g once: the rewrite must match its bits."""
    scale = max(1.0, float(np.abs(g).max()))
    symmetric = float(np.abs(_mid(g, -g.T)).max()) <= 0.5 * DEFAULT_TOL * scale
    return symmetric, _mid(g, g.T)


def reference_degenerate(nus: np.ndarray) -> bool:
    """`nfg.states._degenerate` in NumPy, the expression the library used
    before its scalar loop: the rewrite must decide alike, NaN included."""
    return len(nus) > 1 and bool(
        np.any(np.abs(np.diff(nus)) <= _DEGENERACY_TOL * np.maximum(nus[:-1], 1.0))
    )


def eigensolve_degenerate(chol: np.ndarray) -> bool:
    """`nfg_numeric`'s degeneracy flag as the library decided it for every
    A block before two A modes took a closed form: `reference_degenerate`
    of the top half of the eigenvalues of `_symplectic_hermitian` on the
    Cholesky factor of A, reversed."""
    n = chol.shape[0] // 2
    return reference_degenerate(np.linalg.eigvalsh(_symplectic_hermitian(chol))[n:][::-1])


def eigensolve_symplectic_spectrum(g: np.ndarray) -> np.ndarray:
    """`validate_cm`'s symplectic eigenvalues as the library took them at
    every size before one mode took sqrt|det|: the moduli of the eigenvalues
    of Delta Gamma_s, Gamma_s scaled by `_even_power` of its peak, one per
    pair, descending."""
    gs = _symmetric_part(g)[1]
    scale = _even_power(float(np.abs(gs).max()))
    delta = symplectic_form(g.shape[0] // 2)
    return (np.sort(np.abs(np.linalg.eigvals(delta @ (gs / scale)))) * scale)[::2][::-1]


def reference_channel_verdict(k: np.ndarray, m: np.ndarray) -> tuple[bool, float, float]:
    """Independent check of `GaussianChannel`'s complete-positivity test:
    ``(accepted, margin, scale)`` by the Hermitian eigensolve the library
    used before its scalar Cholesky test.  ``margin`` is the smallest
    eigenvalue of M_s + i(Delta - K Delta K^T), M_s the symmetric part of M,
    plus the allowance max(1e-9, 32 eps scale), scale = max(max|K|^2,
    max|M_s|); the channel passes iff ``margin >= 0``."""
    m = 0.5 * m + 0.5 * m.T
    delta = symplectic_form(k.shape[0] // 2)
    least = float(np.linalg.eigvalsh(m + 1j * (delta - k @ delta @ k.T))[0])
    scale = max(float(np.abs(k).max()) ** 2, float(np.abs(m).max()))
    margin = least + max(DEFAULT_TOL, 32.0 * float(np.finfo(float).eps) * scale)
    return margin >= 0.0, margin, scale


def linalg_calls(monkeypatch) -> list[str]:
    """Wrap every `np.linalg` function so each call appends its name to the
    returned list, for the rest of the test."""
    calls = []
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
    return calls


def exact_standard_form(state: GaussianState) -> tuple[float, float, float, float]:
    """(a, b, c, d) of a (1+1)-mode state from 50-digit invariants of the
    stored matrix: a^2 = det A, b^2 = det B, cd = det C and
    det Gamma = (ab - c^2)(ab - d^2), with c >= |d|."""
    with mpmath.workdps(50):
        g = mpmath.matrix(state.cm.tolist())
        a, b = mpmath.sqrt(mpmath.det(g[0:2, 0:2])), mpmath.sqrt(mpmath.det(g[2:4, 2:4]))
        cd, ab = mpmath.det(g[0:2, 2:4]), a * b
        squares = (ab**2 + cd**2 - mpmath.det(g)) / ab  # c^2 + d^2
        plus, minus = mpmath.sqrt(squares + 2 * cd), mpmath.sqrt(max(squares - 2 * cd, 0))
        c, d = (plus + minus) / 2, mpmath.sign(cd) * abs(plus - minus) / 2
        return float(a), float(b), float(c), float(d)
