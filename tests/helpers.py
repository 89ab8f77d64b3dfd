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
