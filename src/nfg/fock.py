"""Truncated Fock-basis oracle for validating the covariance-matrix overlap.

Expands standard Gaussian states (thermal, coherent, squeezed vacuum,
two-mode squeezed vacuum) in the number basis by their textbook formulas
and computes trace overlaps from those expansions, completely independently
of any phase-space formula.  For tests and diagnostics only: not part of
the public package surface.

Every state the oracle builds is pure (coherent, squeezed, two-mode
squeezed) or diagonal (thermal), so a state is stored as its expansion:
the amplitudes psi of rho = |psi><psi|, or the weights p of rho = diag p.
The two-mode squeezed vacuum is pure on the pairs |kk>, so its expansion
runs over them and takes cutoff entries.  tr(rho sigma) is |<psi|phi>|^2
for two pure states and the dot product of the two diagonals otherwise.

Each family writes its expansion once, and the terms at cutoff c are the
first c of the terms at any larger cutoff, bit for bit, so a state's terms
are computed once, at the ceiling, and every stored state is a slice of
them.  Cutoffs are adaptive by default: the first of 20, 40, 80, ... up to
the ceiling whose slice leaves a truncated trace within the guard of 1, and
a search that reaches the ceiling raises without storing a state.  The
deficit is checked and recorded once per stored state, on its slice, and
reported on the result.  The comparison harness, `oracle_rows`, builds one
`GaussianState` and one ceiling expansion per distinct parameter, and
stores each distinct (parameter, cutoff) slice once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .families import tmsv
from .overlap import overlap
from .states import GaussianState, _is_integer

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
_CEILING = 512  # per mode


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in a truncated number basis, stored as its expansion.

    ``cutoff`` is the basis dimension per mode and ``entries`` the length-
    ``cutoff`` expansion: the amplitudes psi of rho = |psi><psi| if ``pure``,
    else the weights p of rho = diag p.  A ``two_mode`` expansion runs over
    the pairs |kk>; rho is zero elsewhere in the cutoff^2 product basis.
    Real expansions are stored in real dtype.  ``trace_deficit`` is
    1 - trace, the probability weight lost to truncation (clamped at 0).
    """

    cutoff: int
    entries: np.ndarray
    trace_deficit: float
    pure: bool
    two_mode: bool = False


def _diagonal(entries: np.ndarray, pure: bool) -> np.ndarray:
    """The diagonal of the density matrix an expansion stands for: |psi|^2,
    as psi psi*, or the weights p."""
    return entries * entries.conj() if pure else entries


def _deficit(entries: np.ndarray, pure: bool) -> float:
    """1 - trace of the density matrix an expansion stands for, clamped at 0."""
    return max(0.0, 1.0 - float(_diagonal(entries, pure).sum().real))


class _Expansion(NamedTuple):
    """The number-basis expansion of one state.

    ``terms(c)`` gives its first c coefficients: the amplitudes of a pure
    state, or the diagonal weights of a mixed one.  A two-mode expansion runs
    over the pairs |kk>.
    """

    terms: Callable[[int], np.ndarray]
    pure: bool
    two_mode: bool = False

    def build(self, v: np.ndarray) -> FockDensityMatrix:
        """The state whose first len(v) terms are ``v``, frozen in place; a
        cutoff whose weights leave a deficit above the guard raises."""
        deficit = _deficit(v, self.pure)
        if deficit > _GUARD:
            raise ValueError(f"cutoff {len(v)} leaves trace deficit {deficit:.3g} > {_GUARD}")
        v.flags.writeable = False
        return FockDensityMatrix(len(v), v, deficit, self.pure, self.two_mode)


def _search(expansion: _Expansion, v: np.ndarray) -> int:
    """The adaptive cutoff of the terms ``v`` at the ceiling: doubling from
    `_START` up to the ceiling until the slice's diagonal weights leave a
    deficit within the guard."""
    c = _START
    while (deficit := _deficit(v[:c], expansion.pure)) > _GUARD:
        if c >= _CEILING:
            raise ValueError(
                f"trace deficit {deficit:.3g} still above {_GUARD} "
                f"at the cutoff ceiling {_CEILING}"
            )
        c = min(2 * c, _CEILING)
    return c


def _adaptive(expansion: _Expansion, cutoff: int | None) -> FockDensityMatrix:
    """The state at ``cutoff``, an integer of at least 2 (a float such as
    20.5 is refused, not truncated), or at the searched cutoff if None."""
    if cutoff is None:
        v = expansion.terms(_CEILING)
        return expansion.build(v[: _search(expansion, v)])
    if not _is_integer(cutoff) or cutoff < 2:
        raise ValueError(f"cutoff must be an integer of at least 2, got {cutoff!r}")
    return expansion.build(expansion.terms(int(cutoff)))


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

    The state vector sits on the pairs |kk>, so it is stored as its
    ``cutoff`` real Schmidt coefficients, with ``two_mode`` set.
    """
    return _adaptive(_tmsv_expansion(r), cutoff)


def overlap_fock(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """tr(rho sigma) by direct contraction of the truncated expansions.

    Two pure states give |<psi|phi>|^2; any other pair gives the dot product
    of the two diagonals, the only entries a diagonal state has.
    """
    if rho.cutoff != sigma.cutoff:
        raise ValueError(f"cutoff mismatch: {rho.cutoff} vs {sigma.cutoff}")
    if rho.two_mode != sigma.two_mode:
        raise ValueError("cannot contract a one-mode state with a two-mode one")
    if rho.pure and sigma.pure:
        return float(abs(np.vdot(rho.entries, sigma.entries)) ** 2)
    p, q = (_diagonal(dm.entries, dm.pure) for dm in (rho, sigma))
    return float(np.dot(p, q).real)


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

    For each parameter pair of each requested family, both states are
    expanded at the larger of the two searched cutoffs, and the contracted
    overlap is compared with the phase-space formula.  Within a call each
    distinct parameter is expanded and searched once and has one
    `GaussianState`, and each distinct (parameter, cutoff) state is stored
    once, as a slice of its terms at the ceiling.  Returns one row per pair
    with the relative error and the worse of the two trace deficits.
    """
    rows = []
    for family in families or list(_CASES):
        if family not in _CASES:
            raise ValueError(f"unknown family {family!r}")
        expand, build_state = _BUILDERS[family]
        expansions = {x: expand(x) for pair in _CASES[family] for x in pair}
        terms = {x: e.terms(_CEILING) for x, e in expansions.items()}
        cutoffs = {x: _search(e, terms[x]) for x, e in expansions.items()}
        states = {x: build_state(x) for x in expansions}
        pairs = [(x1, x2, max(cutoffs[x1], cutoffs[x2])) for x1, x2 in _CASES[family]]
        needed = dict.fromkeys((x, c) for x1, x2, c in pairs for x in (x1, x2))
        stored = {(x, c): expansions[x].build(terms[x][:c]) for x, c in needed}
        for x1, x2, c in pairs:
            d1, d2 = stored[x1, c], stored[x2, c]
            fock_val = overlap_fock(d1, d2)
            cm_val = overlap(states[x1], states[x2]).value
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
