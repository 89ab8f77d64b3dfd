"""Truncated Fock-basis oracle for validating the covariance-matrix overlap.

Builds density matrices of standard Gaussian states (thermal, coherent,
squeezed vacuum, two-mode squeezed vacuum) by their textbook number-basis
expansions and computes trace overlaps by literal matrix traces, completely
independently of any phase-space formula.  Test support only: not part of
the public package surface.

Each family writes its expansion once (thermal weights, coherent and squeezed
amplitudes, two-mode Schmidt coefficients), and every matrix is built from it.
Cutoffs are adaptive by default: they grow from 20, doubling per step, until
the truncated trace is within the guard of 1.  The search reads only the
diagonal weights, computed with the arithmetic of the matrix diagonal, so
the matrix is built once, at the cutoff found, and a search that reaches the
ceiling raises without building one.  The achieved deficit is reported on
the result.

Matrices with real expansions are stored in real dtype (a real symmetric
matrix is Hermitian).  A two-mode state is stored on its support: the block
of rows and columns it can occupy, with their indices in the cutoff^2
product basis, so the two-mode squeezed vacuum takes cutoff^2 entries
instead of cutoff^4.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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


def _deficit(diagonal: np.ndarray) -> float:
    """1 - trace from a density matrix's diagonal, clamped at 0."""
    return max(0.0, 1.0 - float(diagonal.sum().real))


def _finalize(
    cutoff: int, entries: np.ndarray, support: np.ndarray | None = None
) -> FockDensityMatrix:
    herm_err = np.abs(entries - entries.conj().T).max()
    if herm_err > 1e-12:
        raise ValueError(f"construction produced a non-Hermitian matrix ({herm_err:.3g})")
    deficit = _deficit(np.diagonal(entries))
    entries = entries.copy()
    entries.flags.writeable = False
    if support is not None:
        support.flags.writeable = False
    return FockDensityMatrix(cutoff, entries, deficit, support)


class _Expansion(NamedTuple):
    """The number-basis expansion of one state.

    ``terms(c)`` gives its first c coefficients: the amplitudes of a pure
    state, or the diagonal weights of a mixed one.  A two-mode expansion runs
    over the pairs |kk>, so its matrix is stored on the support
    k * cutoff + k, under the lower two-mode ceiling.
    """

    terms: Callable[[int], np.ndarray]
    pure: bool
    two_mode: bool = False

    @property
    def ceiling(self) -> int:
        return _CEILING_TWO_MODE if self.two_mode else _CEILING

    def diagonal(self, v: np.ndarray) -> np.ndarray:
        """The diagonal of `build`'s matrix, with the same arithmetic."""
        return v * v.conj() if self.pure else v

    def build(self, c: int, v: np.ndarray) -> FockDensityMatrix:
        entries = np.outer(v, v.conj()) if self.pure else np.diag(v)
        return _finalize(c, entries, np.arange(c) * (c + 1) if self.two_mode else None)


def _search(expansion: _Expansion) -> tuple[int, np.ndarray]:
    """The adaptive cutoff and the terms there: doubling from `_START` up to
    the ceiling until the diagonal weights leave a deficit within the guard."""
    c = _START
    while True:
        v = expansion.terms(c)
        deficit = _deficit(expansion.diagonal(v))
        if deficit <= _GUARD:
            return c, v
        if c >= expansion.ceiling:
            raise ValueError(
                f"trace deficit {deficit:.3g} still above {_GUARD} "
                f"at the cutoff ceiling {expansion.ceiling}"
            )
        c = min(2 * c, expansion.ceiling)


def _adaptive(expansion: _Expansion, cutoff: int | None) -> FockDensityMatrix:
    """The density matrix at ``cutoff``, or at the searched cutoff if None;
    the deficit is checked on the weights, so only a kept matrix is built."""
    if cutoff is None:
        c, v = _search(expansion)
    else:
        if cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {cutoff}")
        c = int(cutoff)
        v = expansion.terms(c)
        deficit = _deficit(expansion.diagonal(v))
        if deficit > _GUARD:
            raise ValueError(f"cutoff {cutoff} leaves trace deficit {deficit:.3g} > {_GUARD}")
    return expansion.build(c, v)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 ... n-1, as a running sum of log j."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n)))))


def _log_powers(x: float, k: np.ndarray) -> np.ndarray:
    """k log x, the log of the weights x^k, with 0 log 0 = 0: x = 0 puts all
    weight on k = 0."""
    if x == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * np.log(x)


def _thermal_expansion(n_bar: float) -> _Expansion:
    if not (np.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar}")

    def weights(c: int) -> np.ndarray:
        return np.exp(_log_powers(n_bar / (1.0 + n_bar), np.arange(c))) / (1.0 + n_bar)

    return _Expansion(weights, pure=False)


def thermal_dm(n_bar: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Thermal state: diagonal weights n_bar^k / (1 + n_bar)^(k+1)."""
    return _adaptive(_thermal_expansion(n_bar), cutoff)


def _coherent_expansion(alpha: complex) -> _Expansion:
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")

    def amplitudes(c: int) -> np.ndarray:
        k = np.arange(c)
        # Amplitude modulus in log space; the phase factored separately.
        log_mod = _log_powers(abs(alpha), k) - 0.5 * _log_factorials(c) - 0.5 * abs(alpha) ** 2
        return np.exp(log_mod) * np.exp(1j * k * np.angle(alpha))

    return _Expansion(amplitudes, pure=True)


def coherent_dm(alpha: complex, cutoff: int | None = None) -> FockDensityMatrix:
    """Coherent state |alpha>: amplitudes e^{-|alpha|^2/2} alpha^k / sqrt(k!)."""
    return _adaptive(_coherent_expansion(alpha), cutoff)


def _squeezed_amplitudes(r: float, c: int) -> np.ndarray:
    """Real amplitudes of the squeezed vacuum on even levels, in log space.

    c_{2k} = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)); the factorials
    are combined as logarithms (`_log_factorials`) so large cutoffs neither
    overflow nor lose the small tail.
    """
    psi = np.zeros(c)
    k = np.arange((c + 1) // 2)
    log_fact = _log_factorials(2 * len(k))
    log_mod = (
        _log_powers(abs(np.tanh(r)), k)
        + 0.5 * log_fact[2 * k]
        - k * np.log(2.0)
        - log_fact[k]
        - 0.5 * np.log(np.cosh(r))
    )
    psi[2 * k] = np.sign(-np.tanh(r)) ** k * np.exp(log_mod)
    return psi


def _squeezed_expansion(r: float) -> _Expansion:
    if not np.isfinite(r):
        raise ValueError(f"squeeze parameter must be finite, got {r}")
    return _Expansion(lambda c: _squeezed_amplitudes(float(r), c), pure=True)


def squeezed_vacuum_dm(r: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Squeezed vacuum with quadrature variances (e^{-2r}, e^{2r})."""
    return _adaptive(_squeezed_expansion(r), cutoff)


def _tmsv_expansion(r: float) -> _Expansion:
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")

    def schmidt(c: int) -> np.ndarray:
        return np.exp(_log_powers(np.tanh(r), np.arange(c))) / np.cosh(r)

    return _Expansion(schmidt, pure=True, two_mode=True)


def two_mode_squeezed_dm(r: float, cutoff: int | None = None) -> FockDensityMatrix:
    """Two-mode squeezed vacuum: Schmidt coefficients tanh^k(r) / cosh(r).

    The state vector sits on the diagonal pairs |kk>, so the density matrix
    is stored on that support: the cutoff x cutoff outer product of the
    Schmidt coefficients, in real dtype (the expansion is real), with
    ``support`` = k * cutoff + k.
    """
    return _adaptive(_tmsv_expansion(r), cutoff)


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
    if abs(val.imag) >= 1e-12:
        raise ValueError(
            f"overlap has imaginary part {val.imag:.3g}: the matrices are not Hermitian"
        )
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


#: (expansion, GaussianState builder) of each family.
_BUILDERS = {
    "thermal": (_thermal_expansion, _thermal_state),
    "coherent": (_coherent_expansion, _coherent_state),
    "squeezed": (_squeezed_expansion, _squeezed_state),
    "tmsv": (_tmsv_expansion, tmsv),
}


def oracle_rows(families: list[str] | None = None) -> list[OracleRow]:
    """Compare the Fock oracle with the covariance-matrix overlap.

    For each parameter pair of each requested family, both density matrices
    are built at the larger of the two searched cutoffs, and the literal
    trace overlap is compared with the phase-space formula.  Within a call
    each distinct parameter is searched once and each distinct (parameter,
    cutoff) matrix is built once.  Returns one row per pair with the relative
    error and the worse of the two trace deficits.
    """
    rows = []
    for family in families or list(_CASES):
        if family not in _CASES:
            raise ValueError(f"unknown family {family!r}")
        expand, build_state = _BUILDERS[family]
        expansions = {x: expand(x) for pair in _CASES[family] for x in pair}
        cutoffs = {x: _search(e)[0] for x, e in expansions.items()}
        matrices = {}
        for x1, x2 in _CASES[family]:
            c = max(cutoffs[x1], cutoffs[x2])
            for x in (x1, x2):
                if (x, c) not in matrices:
                    matrices[x, c] = _adaptive(expansions[x], c)
            d1, d2 = matrices[x1, c], matrices[x2, c]
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
                    c,
                )
            )
    return rows
