"""Shared builders for randomized property tests."""

import numpy as np
import scipy.linalg as la

from nfg import (
    GaussianChannel,
    GaussianState,
    GaussianUnitary,
    apply_gaussian_unitary,
    c_squared,
    symplectic_form,
    williamson,
)
from nfg.fock import FockDensityMatrix


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


def dense(dm: FockDensityMatrix) -> np.ndarray:
    """The full cutoff^2 x cutoff^2 matrix of a support-stored two-mode
    density matrix, zero off its support.  For small cutoffs only."""
    n = dm.cutoff**2
    full = np.zeros((n, n), dm.entries.dtype)
    full[np.ix_(dm.support, dm.support)] = dm.entries
    return full


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
