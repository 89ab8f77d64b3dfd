"""Truncated Fock-basis oracle for validating the covariance-matrix overlap.

Builds density matrices of standard Gaussian states (thermal, coherent,
squeezed vacuum, two-mode squeezed vacuum) by their textbook number-basis
expansions and computes trace overlaps by literal matrix traces, completely
independently of any phase-space formula.  Test support only: not part of
the public package surface.

Cutoffs are adaptive by default: they grow from 20, doubling per step, until
the truncated trace is within the guard of 1, and the achieved deficit is
reported on the result.  Matrices with real expansions are stored in real
dtype (a real symmetric matrix is Hermitian).  A two-mode state is stored on
its support: the block of rows and columns it can occupy, with their indices
in the cutoff^2 product basis, so the two-mode squeezed vacuum takes
cutoff^2 entries instead of cutoff^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import tmsv
from .overlap import overlap
from .states import GaussianState

__all__ = [
    "FockDensityMatrix",
    "OracleRow",
    "coherent_dm",
    "oracle_rows",
    "overlap_fock",
    "squeezed_vacuum_dm",
    "thermal_dm",
    "two_mode_squeezed_dm",
]

_GUARD = 1e-10
_START = 20
_CEILING = 512  # per mode; two-mode builders cap lower to bound memory
_CEILING_TWO_MODE = 128


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in a truncated number basis.

    ``cutoff`` is the basis dimension per mode.  ``support`` holds the basis
    indices of the rows and columns of ``entries``; every other matrix
    element is zero.  ``None`` means the full basis, which is how one-mode
    states are stored (``entries`` is cutoff x cutoff); two-mode states carry
    a support in the cutoff^2 product basis, where |m n> has index
    m * cutoff + n.  ``trace_deficit`` is 1 - trace, the probability weight
    lost to truncation (clamped at 0).
    """

    cutoff: int
    entries: np.ndarray
    trace_deficit: float
    support: np.ndarray | None = None


def _finalize(
    cutoff: int, entries: np.ndarray, support: np.ndarray | None = None
) -> FockDensityMatrix:
    herm_err = np.abs(entries - entries.conj().T).max()
    if herm_err > 1e-12:
        raise ValueError(f"construction produced a non-Hermitian matrix ({herm_err:.3g})")
    deficit = max(0.0, 1.0 - float(np.trace(entries).real))
    entries = entries.copy()
    entries.flags.writeable = False
    if support is not None:
        support.flags.writeable = False
    return FockDensityMatrix(cutoff, entries, deficit, support)


def _adaptive(build, cutoff: int | None, ceiling: int) -> FockDensityMatrix:
    if cutoff is not None:
        if cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {cutoff}")
        dm = build(int(cutoff))
        if dm.trace_deficit > _GUARD:
            raise ValueError(
                f"cutoff {cutoff} leaves trace deficit {dm.trace_deficit:.3g} > {_GUARD}"
            )
        return dm
    c = _START
    while True:
        dm = build(c)
        if dm.trace_deficit <= _GUARD:
            return dm
        if c >= ceiling:
            raise ValueError(
                f"trace deficit {dm.trace_deficit:.3g} still above {_GUARD} "
                f"at the cutoff ceiling {ceiling}"
            )
        c = min(2 * c, ceiling)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 ... n-1, as a running sum of log j."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n)))))


def thermal_dm(n_bar: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Thermal state: diagonal weights n_bar^k / (1 + n_bar)^(k+1)."""
    if not (np.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar}")

    def build(c: int) -> FockDensityMatrix:
        k = np.arange(c)
        if n_bar == 0.0:
            p = np.zeros(c)
            p[0] = 1.0
        else:
            ratio = n_bar / (1.0 + n_bar)
            p = np.exp(k * np.log(ratio)) / (1.0 + n_bar)
        return _finalize(c, np.diag(p))

    return _adaptive(build, cutoff, _CEILING)


def coherent_dm(alpha: complex, cutoff: int | None = None) -> FockDensityMatrix:
    """Coherent state |alpha>: amplitudes e^{-|alpha|^2/2} alpha^k / sqrt(k!)."""
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")

    def build(c: int) -> FockDensityMatrix:
        k = np.arange(c)
        if alpha == 0:
            psi = np.zeros(c, complex)
            psi[0] = 1.0
        else:
            # Amplitude modulus in log space; the phase factored separately.
            log_mod = k * np.log(abs(alpha)) - 0.5 * _log_factorials(c) - 0.5 * abs(alpha) ** 2
            phase = np.exp(1j * k * np.angle(alpha))
            psi = np.exp(log_mod) * phase
        return _finalize(c, np.outer(psi, psi.conj()))

    return _adaptive(build, cutoff, _CEILING)


def _squeezed_amplitudes(r: float, c: int) -> np.ndarray:
    """Real amplitudes of the squeezed vacuum on even levels, in log space.

    c_{2k} = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)); the factorials
    are combined as logarithms (`_log_factorials`) so large cutoffs neither
    overflow nor lose the small tail.
    """
    psi = np.zeros(c)
    if r == 0.0:
        psi[0] = 1.0
        return psi
    k = np.arange((c + 1) // 2)
    log_fact = _log_factorials(2 * len(k))
    log_mod = (
        k * np.log(np.abs(np.tanh(r)))
        + 0.5 * log_fact[2 * k]
        - k * np.log(2.0)
        - log_fact[k]
        - 0.5 * np.log(np.cosh(r))
    )
    psi[2 * k] = np.sign(-np.tanh(r)) ** k * np.exp(log_mod)
    return psi


def squeezed_vacuum_dm(r: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Squeezed vacuum with quadrature variances (e^{-2r}, e^{2r})."""
    if not np.isfinite(r):
        raise ValueError(f"squeeze parameter must be finite, got {r}")

    def build(c: int) -> FockDensityMatrix:
        psi = _squeezed_amplitudes(float(r), c)
        return _finalize(c, np.outer(psi, psi))

    return _adaptive(build, cutoff, _CEILING)


def two_mode_squeezed_dm(r: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Two-mode squeezed vacuum: Schmidt coefficients tanh^k(r) / cosh(r).

    The state vector sits on the diagonal pairs |kk>, so the density matrix
    is stored on that support: the cutoff x cutoff outer product of the
    Schmidt coefficients, in real dtype (the expansion is real), with
    ``support`` = k * cutoff + k.
    """
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")

    def build(c: int) -> FockDensityMatrix:
        k = np.arange(c)
        if r == 0.0:
            lam = np.zeros(c)
            lam[0] = 1.0
        else:
            lam = np.exp(k * np.log(np.tanh(r))) / np.cosh(r)
        return _finalize(c, np.outer(lam, lam), k * c + k)

    return _adaptive(build, cutoff, _CEILING_TWO_MODE)


def overlap_fock(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """tr(rho sigma) by direct contraction of the truncated matrices.

    Two support-stored matrices are contracted on their common support, the
    only basis states on which both can be nonzero.
    """
    if rho.cutoff != sigma.cutoff:
        raise ValueError(f"cutoff mismatch: {rho.cutoff} vs {sigma.cutoff}")
    if (rho.support is None) != (sigma.support is None):
        raise ValueError("cannot contract a full matrix with a support-stored one")
    a, b = rho.entries, sigma.entries
    if rho.support is not None:
        _, i, j = np.intersect1d(rho.support, sigma.support, return_indices=True)
        a, b = a[np.ix_(i, i)], b[np.ix_(j, j)]
    val = complex(np.einsum("ij,ji->", a, b))
    assert abs(val.imag) < 1e-12, "overlap of Hermitian matrices must be real"
    return float(val.real)


# --- comparison harness -----------------------------------------------------

#: Parameter pairs exercised per family by `oracle_rows`.
_CASES = {
    "thermal": [(0.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.5, 2.0)],
    "coherent": [(0.0, 1.0), (1.0, 1.0), (1.0, -0.5 + 0.5j), (2.0, 1j)],
    "squeezed": [(0.0, 1.0), (0.5, 1.0), (0.3, 0.5)],
    "tmsv": [(0.0, 0.5), (0.5, 1.0)],
}


@dataclass(frozen=True)
class OracleRow:
    """One oracle-vs-formula comparison."""

    family: str
    label: str
    fock_value: float
    cm_value: float
    rel_err: float
    trace_deficit: float
    cutoff: int


def _thermal_state(n_bar: float) -> GaussianState:
    return GaussianState(np.eye(2) * (1.0 + 2.0 * n_bar), 1, 0)


def _coherent_state(alpha: complex) -> GaussianState:
    mean = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return GaussianState(np.eye(2), 1, 0, mean)


def _squeezed_state(r: float) -> GaussianState:
    return GaussianState(np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)]), 1, 0)


#: (density-matrix builder, GaussianState builder) of each family.
_BUILDERS = {
    "thermal": (thermal_dm, _thermal_state),
    "coherent": (coherent_dm, _coherent_state),
    "squeezed": (squeezed_vacuum_dm, _squeezed_state),
    "tmsv": (two_mode_squeezed_dm, tmsv),
}


def oracle_rows(families: list[str] | None = None) -> list[OracleRow]:
    """Compare the Fock oracle with the covariance-matrix overlap.

    For each parameter pair of each requested family, both states are built
    at a common adaptive cutoff and the literal trace overlap is compared
    with the phase-space formula.  Returns one row per pair with the
    relative error and the worse of the two trace deficits.
    """
    rows = []
    for family in families or list(_CASES):
        if family not in _CASES:
            raise ValueError(f"unknown family {family!r}")
        build_dm, build_state = _BUILDERS[family]
        for x1, x2 in _CASES[family]:
            d1, d2 = build_dm(x1), build_dm(x2)
            c = max(d1.cutoff, d2.cutoff)
            if d1.cutoff != c:
                d1 = build_dm(x1, c)
            if d2.cutoff != c:
                d2 = build_dm(x2, c)
            fock_val = overlap_fock(d1, d2)
            cm_val = overlap(build_state(x1), build_state(x2)).value
            rel = abs(fock_val - cm_val) / abs(cm_val)
            rows.append(
                OracleRow(
                    family,
                    f"{x1} vs {x2}",
                    fock_val,
                    cm_val,
                    rel,
                    max(d1.trace_deficit, d2.trace_deficit),
                    d1.cutoff,
                )
            )
    return rows
