"""The fidelity-based correlation measure N for bipartite Gaussian states.

N(rho_AB) is the supremum, over Gaussian unitaries on subsystem A that leave
the reduced state rho_A invariant, of the squared overlap distance
1 - F^2(rho, U rho U^dagger).  This module provides:

* the exact closed form for (1+1)-mode states in standard form;
* one spectral formula for every (n+m)-mode partition, behind both
  `nfg_two_mode` and `nfg_numeric`, and the upper bound from the same
  spectrum;
* the post-channel closed form for single-mode channels on B, and a
  monotonicity checker for every partition.

Gaussian channels themselves, `GaussianChannel` and `apply_channel`, live in
`nfg.states` with the Gaussian unitaries, where one rule judges both maps.

Everything here works on covariance matrices only: the measure is independent
of the mean.  Stabilizing rotations are symplectic, so det G_S = det G and the
objective is 1 - det G / det((G+G_S)/2).  In the Williamson frame of A
(A = direct sum of nu_i I_2) rotating the A modes by theta_i gives

    det((G+G_S)/2) = det A * det(B - sum_i cos^2(theta_i/2) P_i),  P_i >= 0,

so the objective rises in every angle and its supremum over [0, pi/2]^n_a
sits at theta = (pi/2, ..., pi/2):

    N = 1 - det(B - X) / det(B - X/2),  X = C^T A^{-1} C.

X is unchanged by local symplectics on A (A -> S A S^T and C -> S C cancel),
so the value needs no Williamson rotation.  For (1+1) modes this is
`nfg_closed_form`; the test suite keeps the literal rotation
(`tests/helpers.py`) as an independent check.

One spectrum gives the measure and its bound.  Let mu_i be the eigenvalues
of B^{-1} X, the squared canonical correlations between A and B, in [0, 1]
(a local symplectic T on B only conjugates B^{-1} X, so mu is local-unitary
invariant too).  Then

    N     = 1 - prod_i (1 - mu_i) / (1 - mu_i/2),
    bound = 1 - prod_i (1 - mu_i)                 = 1 - det(B - X)/det B,

evaluated as -expm1 of a sum of `math.log1p` terms, summed in the same
order for both, so weak correlations keep full relative precision, X = 0
gives exactly 0 and mu = 1 gives the clamp.  Each state computes mu once
(`GaussianState` keeps it), so the two values cost one spectrum.  The
bound's term log1p(-mu) is at most N's term log1p(-mu) - log1p(-mu/2),
because log1p(-mu/2) <= 0; rounding is monotone, so bound >= N holds term by
term in floating point, not only in exact arithmetic.

One algorithm gives mu for every partition.  With L_A, L_B the Cholesky
factors of A and B, mu are the squared singular values of
W = L_A^{-1} C L_B^{-T}, since W^T W = L_B^{-1} X L_B^{-T} is similar to
B^{-1} X.  Taking singular values of W, not eigenvalues of W^T W, keeps
W's conditioning unsquared (Bjorck and Golub, Math. Comp. 27 (1973)), so
mu near 1 and weak correlations keep full relative precision, and every
mu is a square, never below 0.  Two triangular solves give W and one SVD
its min(2 n_a, 2 n_b) singular values; when n_a < n_b the 2 n_b - 2 n_a
directions X cannot reach get exact zeros.  For (1+1) modes W is 2x2, and

    sigma_+- = (|(w00 + w11, w01 - w10)| +- |(w00 - w11, w01 + w10)|) / 2,

so the paper's two-mode value comes from float arithmetic on the four
blocks' entries, with no LAPACK call (`states._two_mode_spectrum`).  Over
3000 benchmark-shaped states it is within 8.9e-16 relative of 50-digit
determinants.

The same 2x2 W gives the standard form (a, b, c, d): sqrt(a) L_A^{-1} and
sqrt(b) L_B^{-1} are local symplectics that take A to a I, B to b I and C to
sqrt(ab) W, and the SVD of W with both factors in SO(2), in closed form,
gives c, d and the frames (`states.standard_form`, `states._whiten`).  So
`nfg_closed_form(standard_form(s))` and `nfg_two_mode(s)` share W; the
independent check of both is the eigensolve-and-SVD standard form kept in
the test suite (`tests/helpers.py`), which `standard_form` is tested
against, together with the literal rotation objective.

Degenerate A spectra and the phase convention.  When symplectic eigenvalues
of A coincide, the stabilizer of rho_A is larger than the single-mode
rotations.  In A's Williamson frame it is block diagonal over the groups g
of equal nu_g, each block O_g a passive (orthogonal symplectic) map, that is
an element of U(k_g).  (G+G_S)/2 then has A block A and cross block M C with
M = (I + O)/2, so

    det((G+G_S)/2) = det A * det(B - sum_g C_g^T M_g^T M_g C_g / nu_g),

and M_g^T M_g = (I + sym O_g)/2 >= I/2 whenever every eigenphase of O_g lies
in [-pi/2, pi/2].  Within that range the block value is therefore the
supremum over the whole stabilizer, attained at O = rotation by pi/2 on
every mode (U = i I).  That phase range is this package's convention: the
definition fixes none, and with eigenphases up to pi the objective climbs
further, to `nfg_upper_bound` at parity on A.  The tests sample U(k)
stabilizers on planted degenerate spectra against it.

Monotonicity, swap symmetry and ancilla invariance, for every partition.
The value above rests on the phase convention; each step below reads only
mu, so the three properties hold for every (n+m)-mode partition:

1. N = 1 - prod_i (1 - mu_i)/(1 - mu_i/2) rises in each mu_i in [0, 1]:
   each factor lies in [0, 1] and falls as mu_i rises.  So does the bound's
   factor 1 - mu_i.
2. mu are the squared singular values of W = L_A^{-1} C L_B^{-T}, in
   [0, 1] because B - X >= 0.  The nonzero ones are the eigenvalues of
   T = W W^T = L_A^{-1} C B^{-1} C^T L_A^{-T}, which is symmetric in A and
   B: swapping the sides turns W into W^T, so only the number of zero mu
   changes, and a zero adds a factor 1.
3. A channel on B maps C -> C K^T and B -> Y Y^T + M with Y = K L_B and
   M >= 0 (the real part of the complete-positivity condition), so
   T' = W Y^T (Y Y^T + M)^{-1} Y W^T.  The middle factor is <= I because
   Y Y^T <= Y Y^T + M, so T' <= T in the Loewner order and, by Weyl, each
   sorted mu' <= mu: N and the bound cannot rise.  By step 2 the same holds
   for a channel on A, with any number of modes on either side.
4. An uncorrelated ancilla appended to B turns W into [W, 0], to A into
   [W; 0].  The singular values stay, so mu is only padded with zeros and
   N and the bound are unchanged.  An ancilla whose symplectic eigenvalue
   equals one of A's leaves the value as it is but makes A's spectrum
   degenerate, which sets ``lower_bound_only``.

Without the phase convention the supremum over the stabilizer is the bound
(parity on A), and steps 1-4 give it the same three properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .overlap import _clamp
from .states import (
    GaussianChannel,
    GaussianState,
    StandardFormParams,
    _frozen,
    _spectrum_degenerate,
    apply_channel,
)

__all__ = [
    "MonotonicityReport",
    "NfgResult",
    "OptimizerConfig",
    "check_monotonicity",
    "nfg_after_channel_closed_form",
    "nfg_closed_form",
    "nfg_numeric",
    "nfg_two_mode",
    "nfg_upper_bound",
]

@dataclass(frozen=True)
class NfgResult:
    """Value of the correlation measure together with how it was obtained.

    ``optimizer_theta`` holds the rotation angle(s) attaining the reported
    value, one per A mode and always pi/2: the objective rises in every
    angle.  ``lower_bound_only`` means "A spectrum degenerate": two symplectic
    eigenvalues of the A block agree within 1e-8 relative, so the stabilizer
    group is larger than the rotation family (see `nfg_numeric`).  Under the
    phase convention of the module notes, every stabilizer eigenphase within
    [-pi/2, pi/2], ``value`` is still the supremum over the whole stabilizer;
    without that convention it is only a lower bound.  Values are clamped
    into [0, 1) at double precision.
    """

    value: float
    method: str  # "closed_form" | "numeric" | "channel_closed_form"
    optimizer_theta: np.ndarray | None = None
    lower_bound_only: bool = False


@cache
def _half_pi(n: int) -> np.ndarray:
    """``optimizer_theta`` of every result with ``n`` A modes: pi/2 for each,
    one read-only vector per ``n``, shared as `symplectic_form` is."""
    return _frozen(np.full(n, np.pi / 2))


def _result(value: float, method: str, n_a: int = 1, lower_bound_only=False) -> NfgResult:
    """The clamped result, with the shared `_half_pi` of ``n_a`` as theta."""
    return NfgResult(_clamp(value), method, _half_pi(n_a), lower_bound_only)


def _unit_scale(p: StandardFormParams) -> tuple[int, float, float, float, float]:
    """``(e, a, b, c, d)``: the standard form scaled by 2^-e, e the power of
    two that brings ab near 1.

    Every quantity of `_standard_kernel` is homogeneous in (a, b, c, d), and
    the closed forms are ratios of equal degree, with the channel's M scaled
    alike.  Scaling by a power of two is exact, so ordinary forms give the
    same bits, while a form near 1e200 no longer overflows ab.
    """
    e = (math.frexp(p.a)[1] + math.frexp(p.b)[1]) // 2
    return e, *(math.ldexp(x, -e) for x in (p.a, p.b, p.c, p.d))


def _log2(x: float) -> float:
    """log2|x|, -inf at 0."""
    return math.log2(abs(x)) if x else -math.inf


def _standard_kernel(
    a: float, b: float, c: float, d: float
) -> tuple[float, float, float, float, float]:
    """(c^2, d^2, ab - c^2/2, ab - d^2/2, beta - alpha) of a standard form.

    beta = (ab-c^2/2)(ab-d^2/2) is the product of the middle two entries and
    beta - alpha, alpha = (ab-c^2)(ab-d^2), is ab(c^2+d^2)/2 - 3c^2d^2/4,
    evaluated as (c^2/2)(ab-d^2/2) + (d^2/2)(ab-c^2): a physical form has
    ab >= c^2 >= d^2, so both terms are nonnegative and nothing cancels.
    """
    ab = a * b
    c2, d2 = c * c, d * d
    half_d = ab - 0.5 * d2
    return c2, d2, ab - 0.5 * c2, half_d, 0.5 * c2 * half_d + 0.5 * d2 * (ab - c2)


def nfg_closed_form(p: StandardFormParams) -> NfgResult:
    """Exact value for a (1+1)-mode state with standard form (a, b, c, d).

    The supremum over stabilizing rotations is attained at theta = pi/2 and
    equals 1 - (ab-c^2)(ab-d^2) / ((ab-c^2/2)(ab-d^2/2)).  The difference is
    evaluated as a sum of two nonnegative terms,
    (c^2/2)(ab-d^2/2) + (d^2/2)(ab-c^2) over the same denominator, which is
    exact for product states and immune to the cancellation the literal
    1-minus-ratio suffers when the ratio is near 1.  The form is first
    scaled by a power of two (`_unit_scale`), so ab cannot overflow.
    """
    _, _, half_c, half_d, beta_minus_alpha = _standard_kernel(*_unit_scale(p)[1:])
    return _result(beta_minus_alpha / (half_c * half_d), "closed_form")


def _log1m(mu: float) -> float:
    """log(1 - mu) for mu <= 1, with -inf at mu = 1: the clamp, no warning.
    A NaN stays NaN, so `_clamp` refuses it."""
    return -math.inf if mu >= 1.0 else math.log1p(-mu)


def _measure(state: GaussianState) -> float:
    """1 - prod (1 - mu)/(1 - mu/2) over the state's correlation spectrum,
    unclamped."""
    total = 0.0
    for mu in state._correlation_spectrum:
        total += _log1m(mu) - math.log1p(-0.5 * mu)
    return -math.expm1(total)


def nfg_two_mode(state: GaussianState) -> NfgResult:
    """Exact value for any (1+1)-mode state, from its covariance blocks.

    Equals `nfg_closed_form` of the state's standard form without computing
    that form.  The mean plays no role."""
    if state.n_a != 1 or state.n_b != 1:
        raise ValueError("closed form requires a (1+1)-mode state")
    return _result(_measure(state), "closed_form")


def nfg_upper_bound(state: GaussianState) -> float:
    """Upper bound 1 - det(B - C^T A^{-1} C)/det B on the measure.

    The Schur complement B - C^T A^{-1} C is the covariance of B conditioned
    on A.  The ratio is 1 - prod (1 - mu) over the correlation spectrum the
    measure uses (see the module notes), so it is at least the measure term
    by term, weak correlations keep full relative precision, and product
    states (C = 0) and states with no mode on one side give exactly 0.
    Clamped into [0, 1) like `NfgResult` values: a pure state squeezed past
    double precision has a singular Schur complement and reads just below 1.
    """
    total = 0.0
    for mu in state._correlation_spectrum:  # in `_measure`'s order
        total += _log1m(mu)
    return _clamp(-math.expm1(total))


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of a numeric supremum search; `nfg_numeric` ignores them.

    The supremum has a closed form, so no search runs.  The class and its
    three fields are kept for the callers that still build one.
    """

    grid_points: int = 33
    refine_iters: int = 60
    restarts: int = 4


def nfg_numeric(state: GaussianState, opt: OptimizerConfig | None = None) -> NfgResult:
    """Supremum of the objective over A-mode rotations, for an (n+m)-mode state.

    In the Williamson frame of A every direct sum of single-mode rotations
    stabilizes the reduced state, and the objective rises in every angle
    (see the module notes), so the supremum over theta in [0, pi/2]^n_a is
    the block formula at theta = pi/2 for every A mode.  The name, the
    ``"numeric"`` method string and ``opt`` (ignored) are kept for callers.

    When the A-block symplectic spectrum is degenerate the stabilizer group
    is strictly larger than this rotation family, so the result is flagged
    ``lower_bound_only`` ("A spectrum degenerate", by the rule of
    `williamson`'s ``degeneracy_flag``).  The value is then still the
    supremum over every stabilizer U(k_g) on the degenerate groups whose
    eigenphases lie in [-pi/2, pi/2]: M^T M = (I + sym O)/2 >= I/2 bounds
    the determinant (see the module notes), with equality at U = i I.

    The flag reads the spectrum from A's Cholesky factor L_A
    (`states._spectrum_degenerate`): for two A modes in closed form, in
    Python floats, and for more by one Hermitian eigensolve; no Williamson
    decomposition runs.  The state keeps L_A, which its correlation spectrum
    solves too, so A is factored once for both, in either order.  A product
    state (C = 0) is never flagged and its A block is not factorized: every
    stabilizer leaves it as it is, so its value, exactly 0, is the supremum
    over the whole stabilizer whatever A's spectrum.  ``optimizer_theta`` is
    one read-only vector per n_a, shared by every result.
    """
    if state.n_a < 1 or state.n_b < 1:
        raise ValueError("numeric search needs at least one mode on each side")
    degenerate = _spectrum_degenerate(state)
    return _result(_measure(state), "numeric", state.n_a, degenerate)


def nfg_after_channel_closed_form(p: StandardFormParams, ch: GaussianChannel) -> NfgResult:
    """Exact post-channel value for a standard-form state and a single-mode
    channel on B, without constructing the output state.

    With K = [[k11, k12], [k21, k22]] and M = [[m11, m12], [m12, m22]]:

        n1 = (det K)^2
        n2 = m22 k11^2 + m11 k21^2 - 2 m12 k11 k21
        n3 = m22 k12^2 + m11 k22^2 - 2 m12 k12 k22
        n4 = det M

        value = [(beta - alpha) n1 + a (c^2 n2 + d^2 n3)/2] / (beta n1 + delta)

    where alpha = (ab-c^2)(ab-d^2), beta = (ab-c^2/2)(ab-d^2/2) and
    delta = a(ab-c^2/2) n2 + a(ab-d^2/2) n3 + a^2 n4.  The numerator uses the
    same cancellation-free beta-alpha as `nfg_closed_form`, on the form and
    M scaled alike by `_unit_scale`'s power of two.  K and M are then scaled
    by 2^-f and 2^-2f, 2^f the power of two at the fourth root of the largest
    monomial of n1 ... n4, taken from the entries' log2 (as M >= 0, an m12
    monomial never exceeds the others).  n1 ... n4 are homogeneous of degree
    4 under K -> tK, M -> t^2 M and the scaling is exact, so the value keeps
    its bits; no product then overflows, and only a term negligible next to
    the largest can underflow: a large gain no longer overflows (det K)^2,
    and K = diag(g, 1/g) keeps n1 = 1.  The denominator is strictly
    positive for any valid channel (`GaussianChannel` refuses K = M = 0),
    and one that is not raises `ValueError`.
    Everything, det K and det M included, is scalar arithmetic on the
    rows of K and M the channel keeps.  The channel displacement d_bar does not enter.  K = 0 gives
    exactly 0; M = 0 with det K = 1 reproduces `nfg_closed_form` bit for bit.
    """
    if ch.n_modes != 1:
        raise ValueError("closed form requires a single-mode channel on B")
    (k11, k12), (k21, k22) = ch._k_rows
    (m11, m12), (_, m22) = ch._m_rows
    e, a, b, c, d = _unit_scale(p)
    m11, m12, m22 = (math.ldexp(x, -e) for x in (m11, m12, m22))
    l11, l12, l21, l22, lm1, lm2 = map(_log2, (k11, k12, k21, k22, m11, m22))
    # log2 of the largest monomial of n1, n2, n3 and n4.
    top = max(
        2.0 * max(l11 + l22, l12 + l21),
        lm2 + 2.0 * max(l11, l12),
        lm1 + 2.0 * max(l21, l22),
        lm1 + lm2,
    )
    f = math.floor(top / 4.0) if top > -math.inf else 0
    k11, k12, k21, k22 = (math.ldexp(x, -f) for x in (k11, k12, k21, k22))
    m11, m12, m22 = (math.ldexp(x, -2 * f) for x in (m11, m12, m22))
    c2, d2, half_c, half_d, beta_minus_alpha = _standard_kernel(a, b, c, d)
    n1 = (k11 * k22 - k12 * k21) ** 2
    n2 = m22 * k11**2 + m11 * k21**2 - 2.0 * m12 * k11 * k21
    n3 = m22 * k12**2 + m11 * k22**2 - 2.0 * m12 * k12 * k22
    n4 = m11 * m22 - m12 * m12
    delta = a * (half_c * n2 + half_d * n3 + a * n4)
    num = beta_minus_alpha * n1 + 0.5 * a * (c2 * n2 + d2 * n3)
    den = half_c * half_d * n1 + delta
    if not den > 0.0:
        raise ValueError(f"post-channel denominator {den:.6g} is not positive: invalid channel")
    return _result(num / den, "channel_closed_form")


@dataclass(frozen=True)
class MonotonicityReport:
    """Before/after comparison of the measure across a channel on B, for any
    partition."""

    before: float
    after: float
    holds: bool
    slack: float  # before - after; nonnegative when monotonicity holds


def check_monotonicity(state: GaussianState, ch: GaussianChannel) -> MonotonicityReport:
    """Check that a channel on B cannot increase the measure, for any
    partition (the module notes prove that it cannot).

    ``holds`` allows 1e-10 of numerical slack; ``slack`` reports the raw
    decrease before - after.  ``before`` reads the correlation spectrum the
    input state already holds if the measure or the bound was asked of it.
    """
    before = _clamp(_measure(state))
    after = _clamp(_measure(apply_channel(state, ch, "B")))
    return MonotonicityReport(before, after, after <= before + 1e-10, before - after)
