import sys
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg as la

import nfg.correlation
import nfg.states

from nfg import (
    GaussianChannel,
    GaussianState,
    GaussianUnitary,
    SstsParams,
    StandardFormParams,
    apply_channel,
    apply_gaussian_unitary,
    c_squared,
    check_monotonicity,
    nfg_after_channel_closed_form,
    nfg_closed_form,
    nfg_numeric,
    nfg_ssts,
    nfg_two_mode,
    nfg_upper_bound,
    ssts,
    standard_form,
    symplectic_form,
    tmsv,
    williamson,
)

from helpers import (
    apply_global,
    brute_force_nfg,
    dilation_channel,
    float_bits,
    haar_unitary,
    lapack_spectrum,
    linalg_calls,
    nfg_theta_objective,
    passive_stabilizer,
    planted_degenerate_state,
    random_channel,
    random_cm,
    random_passive_stabilizer,
    random_state,
    random_symplectic,
    reference_spectrum,
    rotation,
    squeezed_block,
    squeezed_product,
    standard_state,
    stream_shaped_cm,
    stream_shaped_state,
    through_thermal_dilation,
    with_ancilla,
)


def tmsv_reference(r: float) -> float:
    return 1.0 - 16.0 / ((np.exp(-4.0 * r) + np.exp(4.0 * r)) / 2.0 + 3.0) ** 2


def reference_values(state: GaussianState, digits: int = 50) -> tuple[float, float]:
    """N = 1 - det(B - X)/det(B - X/2) and the bound 1 - det(B - X)/det B,
    X = C^T A^{-1} C, from determinants of the stored matrix at ``digits``
    (50 by default) decimal digits."""
    k, n = 2 * state.n_a, state.cm.shape[0]
    with mpmath.workdps(digits):
        g = mpmath.matrix(state.cm.tolist())
        a, b, c = g[:k, :k], g[k:n, k:n], g[:k, k:n]
        x = c.T * mpmath.inverse(a) * c
        schur = mpmath.det(b - x)
        return float(1 - schur / mpmath.det(b - x / 2)), float(1 - schur / mpmath.det(b))


def exact_spectrum(state: GaussianState, digits: int = 50) -> list[float]:
    """The nonzero correlation spectrum of the stored matrix, ascending: the
    squared singular values of W = L_A^{-1} C L_B^{-T} at ``digits``
    (50 by default) decimal digits."""
    k = 2 * state.n_a
    with mpmath.workdps(digits):
        g = mpmath.matrix(state.cm.tolist())
        l_a, l_b = mpmath.cholesky(g[:k, :k]), mpmath.cholesky(g[k:, k:])
        w = l_a**-1 * g[:k, k:] * (l_b**-1).T
        return sorted(float(s * s) for s in mpmath.svd_r(w, compute_uv=False))


def split_spectrum_state(rng: np.random.Generator, n_a: int, n_b: int) -> GaussianState:
    """A (2+1), (1+2) or (2+2) state whose nonzero mu split in two halves
    about 10 or more orders apart: vacuum plus the classical noise
    sum_j t_j v_j v_j^T, one term per quadrature of the smaller side (B at
    (2+2)), which enters only its own term, half of the t_j in [0.5, 5) and
    half in [1e-9, 1e-6), then a random symplectic on each side.  For a
    one-mode side the terms are t v v^T + s w w^T, q entering v and p w."""
    n, k = n_a + n_b, 2 * min(n_a, n_b)
    one = 0 if n_a < n_b else 2 * n_a
    t = np.concatenate([rng.uniform(0.5, 5.0, k // 2), 10.0 ** rng.uniform(-9.0, -6.0, k // 2)])
    v = rng.normal(size=(k, 2 * n))
    v[:, one : one + k] = np.eye(k)
    g = np.eye(2 * n)
    for t_j, v_j in zip(t, v):
        g = g + t_j * np.outer(v_j, v_j)
    local = la.block_diag(random_symplectic(rng, n_a), random_symplectic(rng, n_b))
    g = local @ g @ local.T
    return GaussianState(0.5 * (g + g.T), n_a, n_b)


PARTITIONS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def float_path_state(rng: np.random.Generator, n_a: int, n_b: int, kind: str) -> GaussianState:
    """A random (n_a+n_b) state of one ``kind``: "random"; "weak", with C
    scaled by 1e-6; "near-pure", with symplectic eigenvalues within 1e-6
    of 1; "scaled", either times 1e150 or with every mode squeezed by
    10^(+-75) on its axes, so that its entries span 1e-150 to 1e150."""
    k, n = 2 * n_a, n_a + n_b
    if kind == "near-pure":
        nus = 1.0 + 10.0 ** rng.uniform(-12.0, -6.0, n)
        return GaussianState(random_cm(rng, n, nus=nus), n_a, n_b)
    g = random_cm(rng, n)
    if kind == "weak":
        g[:k, k:] *= 1e-6
        g[k:, :k] *= 1e-6
    elif kind == "scaled":
        if rng.uniform() < 0.5:
            g *= 1e150
        else:
            d = np.repeat(10.0 ** (75.0 * rng.choice([-1.0, 1.0], n)), 2)
            d[1::2] = 1.0 / d[1::2]
            g = d[:, None] * g * d
    return GaussianState(g, n_a, n_b)


class TestClosedForm:
    def test_pure_boundary_point(self):
        c = 2.0 * np.sqrt(2.0)
        res = nfg_closed_form(StandardFormParams(3.0, 3.0, c, -c))
        assert res.value == pytest.approx(0.96, rel=1e-12)
        assert res.method == "closed_form"
        assert res.optimizer_theta == pytest.approx([np.pi / 2])
        # same point through the squeezed-vacuum formula at cosh(2r) = 3
        assert res.value == pytest.approx(1.0 - 16.0 / (17.0 + 3.0) ** 2, rel=1e-12)

    def test_product_params_give_exact_zero(self):
        assert nfg_closed_form(StandardFormParams(2.0, 3.0, 0.0, 0.0)).value == 0.0

    def test_family_point(self):
        params, _, _ = standard_form(ssts(SstsParams(49.0, 0.9)))
        assert nfg_closed_form(params).value == pytest.approx(0.897955, abs=1e-5)

    def test_formula_rounding_without_cancellation(self, rng):
        # beta - alpha is a sum of two nonnegative terms, so against a
        # 50-digit evaluation of the same formula at the same parameters the
        # value keeps to ~2 ulps: over 8 x 1000 stream-shaped standard forms
        # the worst error was 4.8e-16, where the expanded
        # ab(c^2+d^2)/2 - 3c^2d^2/4 reached 9.3e-16 to 1.1e-15 in every 1000.
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(1000):
                p, _, _ = standard_form(stream_shaped_state(rng))
                a, b, c, d = (mpmath.mpf(x) for x in (p.a, p.b, p.c, p.d))
                ab, c2, d2 = a * b, c**2, d**2
                exact = 1 - (ab - c2) * (ab - d2) / ((ab - c2 / 2) * (ab - d2 / 2))
                worst = max(worst, float(abs(nfg_closed_form(p).value - exact) / exact))
        assert worst <= 6e-16


class TestThetaObjective:
    def test_zero_angle_is_exact_zero(self, rng):
        state = random_state(rng)
        params, _, _ = standard_form(state)
        assert nfg_theta_objective(standard_state(params), 0.0) == 0.0

    def test_endpoint_matches_closed_form(self, rng):
        for _ in range(10):
            params, _, _ = standard_form(random_state(rng))
            state = standard_state(params)
            assert nfg_theta_objective(state, np.pi / 2) == pytest.approx(
                nfg_closed_form(params).value, abs=1e-12
            )

    def test_matches_parameter_expression(self, rng):
        for _ in range(10):
            p, _, _ = standard_form(random_state(rng))
            state = standard_state(p)
            theta = rng.uniform(0.0, np.pi / 2)
            n0 = (1.0 + np.cos(theta)) / 2.0
            ab, c2, d2 = p.a * p.b, p.c**2, p.d**2
            expected = 1.0 - (ab - c2) * (ab - d2) / ((ab - c2 * n0) * (ab - d2 * n0))
            assert nfg_theta_objective(state, theta) == pytest.approx(expected, abs=1e-12)

    def test_nondecreasing_on_grid(self, rng):
        for _ in range(5):
            params, _, _ = standard_form(random_state(rng))
            state = standard_state(params)
            vals = [nfg_theta_objective(state, t) for t in np.linspace(0.0, np.pi / 2, 100)]
            assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("n_bar", [1e6, 1e8])
    def test_stays_below_one_for_states_squeezed_to_the_limit(self, n_bar):
        state = tmsv(np.arcsinh(np.sqrt(n_bar)))
        assert nfg_theta_objective(state, 0.5) == np.nextafter(1.0, 0.0)

    def test_out_of_range_rejected(self):
        state = tmsv(0.3)
        with pytest.raises(ValueError):
            nfg_theta_objective(state, -0.1)
        with pytest.raises(ValueError):
            nfg_theta_objective(state, 2.0)


class TestTwoMode:
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_squeezed_vacuum_formula(self, r):
        got = nfg_two_mode(tmsv(r)).value
        if r == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(tmsv_reference(r), rel=1e-10)

    def test_vacuum_product_is_zero(self):
        assert nfg_two_mode(GaussianState(np.eye(4), 1, 1)).value == 0.0

    def test_mean_independence(self, rng):
        state = ssts(SstsParams(1.0, 0.5))
        base = nfg_two_mode(state).value
        for _ in range(5):
            moved = GaussianState(state.cm, 1, 1, 10.0 * rng.normal(size=4))
            assert nfg_two_mode(moved).value == pytest.approx(base, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            state = random_state(rng)
            base = nfg_two_mode(state).value
            u = GaussianUnitary(
                la.block_diag(random_symplectic(rng, 1), random_symplectic(rng, 1))
            )
            assert nfg_two_mode(
                apply_global(state, u)
            ).value == pytest.approx(base, abs=1e-9)

    def test_wrong_partition_rejected(self):
        with pytest.raises(ValueError):
            nfg_two_mode(GaussianState(np.eye(6), 2, 1))

    def test_matches_closed_form_of_standard_form(self, rng):
        states = [random_state(rng) for _ in range(180)]
        for _ in range(10):  # c = 1e-9 under random local symplectics
            p = StandardFormParams(
                rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), 1e-9, rng.uniform(-1e-9, 1e-9)
            )
            u = GaussianUnitary(
                la.block_diag(random_symplectic(rng, 1), random_symplectic(rng, 1))
            )
            states.append(apply_global(standard_state(p), u))
        states += [ssts(SstsParams(1e13, mu)) for mu in np.linspace(0.0, 1.0, 10)]
        for state in states:
            expected = nfg_closed_form(standard_form(state)[0]).value
            assert nfg_two_mode(state).value == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestZeroIffProduct:
    def test_product_states_give_exact_zero(self, rng):
        for _ in range(10):
            a = random_state(rng, 1, 0)
            b = random_state(rng, 1, 0)
            prod = GaussianState(la.block_diag(a.cm, b.cm), 1, 1)
            value = nfg_two_mode(prod).value
            assert value == 0.0 and not np.signbit(value)  # prints as 0, not -0

    def test_small_but_nonzero_correlations_detected(self, rng):
        for _ in range(10):
            a = rng.uniform(1.5, 3.0)
            params = StandardFormParams(a, a, 1e-6, 0.0)
            u = GaussianUnitary(
                la.block_diag(random_symplectic(rng, 1), random_symplectic(rng, 1))
            )
            state = apply_global(standard_state(params), u)
            assert nfg_two_mode(state).value >= 1e-14


def squeezed_correlated(r: float, side: str) -> GaussianState:
    """`squeezed_product` with a correlation 0.5 between the thermal mode's q
    and the squeezed mode's anti-squeezed quadrature."""
    g = np.array(squeezed_product(r, side).cm)
    wide = rotation(0.7)[:, 1]
    if side == "A":
        g[:2, 2:] = 0.5 * np.outer(wide, [1.0, 0.0])
    else:
        g[:2, 2:] = 0.5 * np.outer([1.0, 0.0], wide)
    g[2:, :2] = g[:2, 2:].T
    return GaussianState(g, 1, 1)


class TestSqueezedPastDoublePrecision:
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("r", np.linspace(4.0, 17.0, 27))
    def test_product_state_scores_zero(self, r, side):
        state = squeezed_product(r, side)
        values = (nfg_two_mode(state).value, nfg_numeric(state).value, nfg_upper_bound(state))
        assert values == (0.0, 0.0, 0.0)
        assert not np.any(np.signbit(values))

    def test_grid_reaches_blocks_that_do_not_factor(self):
        # Otherwise the product test above would not exercise the fault.
        for r in (10.0, 16.0):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(squeezed_block(r))

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("r", [12.0, 16.0])
    @pytest.mark.parametrize(
        "call",
        [lambda s: nfg_two_mode(s).value, lambda s: nfg_numeric(s).value, nfg_upper_bound],
        ids=["nfg_two_mode", "nfg_numeric", "nfg_upper_bound"],
    )
    def test_correlated_state_raises_a_clear_error(self, call, r, side):
        with pytest.raises(ValueError, match="singular at double precision") as info:
            call(squeezed_correlated(r, side))
        assert not isinstance(info.value, np.linalg.LinAlgError)


class TestUpperBound:
    def test_product_state_bound_is_zero(self):
        g = la.block_diag(3.0 * np.eye(2), 2.0 * np.eye(2))
        assert nfg_upper_bound(GaussianState(g, 1, 1)) == 0.0

    def test_dominates_family_value(self):
        state = ssts(SstsParams(49.0, 0.9))
        assert nfg_upper_bound(state) >= nfg_two_mode(state).value

    def test_approaches_one_for_large_squeezing(self):
        values = [nfg_upper_bound(tmsv(r)) for r in (0.5, 1.0, 2.0, 3.0)]
        assert np.all(np.diff(values) > 0.0)
        assert values[-1] > 0.999999
        assert all(v < 1.0 for v in values)

    def test_dominates_on_random_states(self, rng):
        for _ in range(50):
            state = random_state(rng)
            bound = nfg_upper_bound(state)
            assert nfg_two_mode(state).value <= bound + 1e-10
            assert 0.0 <= bound < 1.0

    def test_multimode_partition(self, rng):
        state = random_state(rng, 2, 1)
        assert 0.0 <= nfg_upper_bound(state) < 1.0

    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_equals_overlap_distance_to_parity_on_a(self, rng, n_a, n_b):
        # Parity on A (S = -I) is the rotation by pi of every A mode.  Applied
        # as a unitary and scored with the overlap distance, it shares no code
        # with the correlation spectrum behind the bound.
        parity = GaussianUnitary(-np.eye(2 * n_a))
        for _ in range(40):
            state = random_state(rng, n_a, n_b)
            flipped = apply_gaussian_unitary(state, parity, "A")
            expected = c_squared(state, flipped)
            assert nfg_upper_bound(state) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-3, 1e-5, 1e-7, 1e-8, 1e-9])
    def test_weak_correlations_keep_relative_precision(self, c):
        # Standard form: 1 - det(B - X)/det B = (ab(c^2 + d^2) - c^2 d^2)/(ab)^2,
        # which has no cancellation.  A difference of log-determinants loses
        # every digit here and falls to 0, below the measure itself.
        a, b, d = 3.0, 2.0, -c / 2
        state = standard_state(StandardFormParams(a, b, c, d))
        exact = (a * b * (c * c + d * d) - c * c * d * d) / (a * b) ** 2
        bound = nfg_upper_bound(state)
        assert bound == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert bound >= nfg_two_mode(state).value

    @pytest.mark.parametrize("n_bar", [1e6, 1e8, 1e13, 1e2, 1e4, 1e10])
    def test_pure_state_squeezed_past_double_precision(self, n_bar):
        states = [tmsv(np.arcsinh(np.sqrt(n_bar)))]
        states += [ssts(SstsParams(n_bar, mu)) for mu in (0.9, 0.999, 1.0)]
        for state in states:
            bound = nfg_upper_bound(state)
            assert bound < 1.0
            assert bound >= nfg_two_mode(state).value
            assert bound >= nfg_numeric(state).value


class TestNanIsRefused:
    """A NaN in a measure raises `ValueError` instead of reading as an
    uncorrelated 0 (max(0.0, nan) is 0.0): every `NfgResult`, bound,
    monotonicity report and c_squared goes through `overlap._clamp`."""

    @pytest.fixture
    def nan_spectrum(self, monkeypatch):
        def spectrum(state):
            mu = np.zeros(2 * state.n_b)
            mu[-1] = np.nan
            return mu

        monkeypatch.setattr(GaussianState, "_correlation_spectrum", property(spectrum))

    @pytest.mark.parametrize(
        "n_a, call",
        [
            (1, lambda s, ch: nfg_two_mode(s)),
            (1, lambda s, ch: nfg_numeric(s)),
            (2, lambda s, ch: nfg_numeric(s)),
            (1, lambda s, ch: nfg_upper_bound(s)),
            (2, lambda s, ch: nfg_upper_bound(s)),
            (1, lambda s, ch: check_monotonicity(s, ch)),
            (2, lambda s, ch: check_monotonicity(s, ch)),
        ],
    )
    def test_spectrum_callers(self, rng, nan_spectrum, n_a, call):
        state, ch = random_state(rng, n_a, 1), random_channel(rng)
        with pytest.raises(ValueError, match="NaN"):
            call(state, ch)

    def test_c_squared(self, rng, monkeypatch):
        # `nfg.overlap` is the function; the module is in sys.modules
        overlap_module = sys.modules["nfg.overlap"]
        monkeypatch.setattr(overlap_module, "fidelity_f", lambda rho, sigma: np.nan)
        state = random_state(rng)
        with pytest.raises(ValueError, match="NaN"):
            c_squared(state, state)

    def test_closed_form(self, rng, monkeypatch):
        monkeypatch.setattr(nfg.correlation, "_standard_kernel", lambda *args: (np.nan,) * 5)
        p, _, _ = standard_form(random_state(rng))
        with pytest.raises(ValueError, match="NaN"):
            nfg_closed_form(p)


class TestCorrelationSpectrum:
    """The measure and its bound from the one spectrum a state keeps."""

    @pytest.mark.parametrize("n_a, n_b", PARTITIONS)
    def test_bound_dominates_with_zero_slack(self, rng, n_a, n_b):
        for _ in range(60):
            state = random_state(rng, n_a, n_b)
            bound = nfg_upper_bound(state)
            assert bound >= nfg_numeric(state).value
            if n_a == n_b == 1:
                assert bound >= nfg_two_mode(state).value

    @pytest.mark.parametrize("n_a, n_b", PARTITIONS)
    def test_random_states_match_high_precision_reference(self, rng, n_a, n_b):
        # 2e-15 is 9 ulps of relative error.  The worst of 720 such draws was
        # 1.04e-15 before the shared spectrum, and of 960 draws 1.01e-15 with it.
        for _ in range(20):
            state = random_state(rng, n_a, n_b)
            value, bound = reference_values(state)
            assert nfg_numeric(state).value == pytest.approx(value, rel=2e-15, abs=0.0)
            assert nfg_upper_bound(state) == pytest.approx(bound, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("c", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_weak_correlations_match_high_precision_reference(self, c):
        state = standard_state(StandardFormParams(3.0, 2.0, c, -c / 2))
        value, bound = reference_values(state)
        assert nfg_two_mode(state).value == pytest.approx(value, rel=1e-15, abs=0.0)
        assert nfg_upper_bound(state) == pytest.approx(bound, rel=1e-15, abs=0.0)

    def test_one_spectrum_svd_per_state(self, rng, monkeypatch):
        # The spectrum is the only SVD in these calls, and no real symmetric
        # eigvalsh runs: validation beyond 4 x 4 takes a Cholesky factor,
        # and the flag of two A modes solves nothing.  A (1+1) state takes
        # the closed form and a (2+1) state the float kernel of a one-mode
        # side: neither runs one.  A (2+2) state runs one, on W.
        pair, ch = random_state(rng), random_channel(rng)
        multimode, wide = random_state(rng, 2, 1), random_state(rng, 2, 2)
        svds, real_solves = [], []
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

        def svd_spy(m, *args, **kwargs):
            svds.append(m.shape)
            return svd(m, *args, **kwargs)

        def eigvalsh_spy(m, *args, **kwargs):
            if not np.iscomplexobj(m):
                real_solves.append(m.shape)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        value = nfg_two_mode(pair).value
        nfg_upper_bound(pair)
        nfg_numeric(pair)
        report = check_monotonicity(pair, ch)
        assert report.before == value
        assert svds == []
        nfg_upper_bound(multimode)
        nfg_numeric(multimode)
        report = check_monotonicity(multimode, ch)
        assert report.before == nfg_numeric(multimode).value
        assert real_solves == []
        assert svds == []
        nfg_upper_bound(wide)
        nfg_numeric(wide)
        assert svds == [(4, 4)]  # W, once

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (0, 1), (2, 0), (0, 2)])
    def test_bound_is_zero_with_one_side_empty(self, rng, n_a, n_b):
        bound = nfg_upper_bound(random_state(rng, n_a, n_b))
        assert bound == 0.0 and np.copysign(1.0, bound) == 1.0

    @staticmethod
    def assert_reference_bits(state: GaussianState):
        mu = state._correlation_spectrum
        assert isinstance(mu, tuple) and all(type(x) is float for x in mu)
        assert state._correlation_spectrum is mu
        assert float_bits(mu) == float_bits(reference_spectrum(state).tolist())

    def test_stream_shaped_pairs_match_the_array_reference(self, rng):
        for _ in range(400):
            self.assert_reference_bits(GaussianState(stream_shaped_cm(rng, 13.0), 1, 1))

    # (1+2), (2+1) and (2+2) whiten C in Python floats, not by the array
    # reference's solves: their test is
    # `test_float_spectrum_is_as_accurate_as_the_array_path`.
    @pytest.mark.parametrize("n_b, n_a", [(1, 1), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_random_states_match_the_array_reference(self, rng, n_a, n_b):
        for _ in range(10):
            self.assert_reference_bits(random_state(rng, n_a, n_b))

    @pytest.mark.parametrize("kind", ["random", "weak", "near-pure", "scaled"])
    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 1), (2, 2)])
    def test_float_spectrum_is_as_accurate_as_the_array_path(self, rng, n_a, n_b, kind):
        # (2+1) and (1+2) take the float kernel of a one-mode side, and
        # (2+2) forms W in floats for its SVD.  Against high-precision
        # determinants of the stored matrix (400 digits where it spans
        # 1e+-150), the worst relative error on N and the bound is at most
        # twice that of the array path they replaced (two LAPACK factors,
        # two solves and an SVD, `lapack_spectrum`) on the same draws.
        # Over 600 draws per kind and partition at (2+1) and (1+2) the
        # float path's worst was 7.6e-16 to 2.3e-15 and the array path's
        # 7.8e-16 to 1.7e-13, never more than 1.2 times below the float
        # path's: the array path's solve loses digits on locally squeezed
        # states.  Over 120 (2+2) draws per kind the float path's worst was
        # 8.9e-16 to 9.9e-16 and the array path's 8.8e-16 to 7.1e-15.
        worst, array_worst = 0.0, 0.0
        for _ in range(30):
            state = float_path_state(rng, n_a, n_b, kind)
            value, bound = nfg_numeric(state).value, nfg_upper_bound(state)
            assert value <= bound
            array = SimpleNamespace(_correlation_spectrum=tuple(lapack_spectrum(state).tolist()))
            digits = 400 if kind == "scaled" else 50
            exact = reference_values(state, digits)
            for (x, y), ref in zip(
                ((value, nfg.correlation._measure(array)), (bound, nfg_upper_bound(array))), exact
            ):
                worst = max(worst, abs(x - ref) / ref)
                array_worst = max(array_worst, abs(y - ref) / ref)
            product = np.array(state.cm)
            product[: 2 * n_a, 2 * n_a :] = product[2 * n_a :, : 2 * n_a] = 0.0
            product = GaussianState(product, n_a, n_b)
            assert (nfg_numeric(product).value, nfg_upper_bound(product)) == (0.0, 0.0)
        assert worst <= 2.0 * array_worst

    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (1, 2), (2, 2)])
    def test_float_spectrum_keeps_the_smaller_mu(self, rng, n_a, n_b):
        # Every nonzero mu against 50-digit singular values of W, on states
        # whose smaller half of mu lies 10 or more orders below the larger.
        # A backward-stable path moves each sigma by at most c eps
        # sigma_max, so each mu's relative error is at most
        # 2 c eps (mu_max / mu)^(1/2); c = 16 here, and the array path
        # (`lapack_spectrum`) meets the bound on the same draws.  Over 240
        # (2+1) and (1+2) draws the float path's worst c was 4 and the
        # array path's 1.1: the float path's smaller mu is up to 5 times
        # less accurate, as W's forward substitution loses more of
        # sigma_min than the array path's solves.  R's r11 from the Gram
        # identity, which squares W's conditioning, reads c ~ 1e7.  Over
        # 720 (2+2) draws the float path's worst c was 8.9 and the array
        # path's 5.5: both end in one SVD, of W formed by forward
        # substitution or by LAPACK's solves.
        eps, k = np.finfo(float).eps, 2 * min(n_a, n_b)
        for _ in range(40):
            state = split_spectrum_state(rng, n_a, n_b)
            exact = exact_spectrum(state)
            assert exact[k // 2] >= 1e10 * exact[k // 2 - 1] > 0.0
            mu = state._correlation_spectrum
            assert mu[:-k] == (0.0,) * (len(mu) - k)
            for path in (mu[-k:], lapack_spectrum(state).tolist()[-k:]):
                for got, ref in zip(path, exact):
                    assert abs(got - ref) <= 32.0 * eps * (exact[-1] / ref) ** 0.5 * ref

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)])
    def test_one_side_empty_matches_the_array_reference(self, rng, n_a, n_b):
        state = random_state(rng, n_a, n_b)
        self.assert_reference_bits(state)
        assert len(state._correlation_spectrum) == 2 * n_b

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("ancilla_side", [None, "A", "B"])
    def test_product_with_singular_block_factors_nothing(self, monkeypatch, side, ancilla_side):
        # C = 0 at (1+1), and at (2+1) or (1+2) with an ancilla: one test on
        # the rows gives zeros before any block is factored.
        state = squeezed_product(16.0, side)
        if ancilla_side is not None:
            state = with_ancilla(state, ancilla_side, np.eye(2))
        calls = linalg_calls(monkeypatch)
        mu = state._correlation_spectrum
        assert calls == []
        assert mu == (0.0,) * (2 * state.n_b) and not any(np.signbit(mu))
        self.assert_reference_bits(state)

    @pytest.mark.parametrize("ancilla_side", [None, "A", "B"])
    @pytest.mark.parametrize("n_bar", [1e10, 1e13])
    def test_clamped_tmsv_matches_the_array_reference(self, n_bar, ancilla_side):
        state = tmsv(np.arcsinh(np.sqrt(n_bar)))
        if ancilla_side is not None:
            state = with_ancilla(state, ancilla_side, np.eye(2))
        self.assert_reference_bits(state)
        assert state._correlation_spectrum[-2:] == (1.0, 1.0)


class TestNumeric:
    def test_matches_closed_form(self, rng):
        for _ in range(20):
            state = random_state(rng)
            res = nfg_numeric(state)
            assert res.method == "numeric"
            assert not res.lower_bound_only
            assert abs(res.value - nfg_two_mode(state).value) < 1e-8

    def test_product_state(self, rng):
        a, b = random_state(rng, 1, 0), random_state(rng, 1, 0)
        prod = GaussianState(la.block_diag(a.cm, b.cm), 1, 1)
        assert nfg_numeric(prod).value < 1e-12

    def test_product_state_with_a_block_squeezed_past_double_precision(self):
        # C = 0 scores exactly 0 over the whole stabilizer: the flag reads
        # False and A, which does not factor here, is not factorized.
        a = la.block_diag(squeezed_block(12.0), 2.0 * np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        state = GaussianState(la.block_diag(a, np.eye(2)), 2, 1)
        res = nfg_numeric(state)
        assert (res.value, res.lower_bound_only) == (0.0, False)
        assert nfg_upper_bound(state) == 0.0

    def test_product_state_is_never_flagged(self):
        state = GaussianState(la.block_diag(3.0 * np.eye(4), np.eye(2)), 2, 1)
        assert williamson(state.cm[:4, :4]).degeneracy_flag
        res = nfg_numeric(state)
        assert (res.value, res.lower_bound_only) == (0.0, False)

    def test_uncorrelated_factor_is_ignored(self):
        # SSTS on (mode 1, mode 3) with an uncorrelated thermal on mode 2:
        # the supremum over both A-mode rotations equals the SSTS value.
        family = ssts(SstsParams(1.0, 0.8))
        big = la.block_diag(family.cm, 2.0 * np.eye(2))
        perm = [0, 1, 4, 5, 2, 3]
        state = GaussianState(big[np.ix_(perm, perm)], 2, 1)
        res = nfg_numeric(state)
        assert res.value == pytest.approx(nfg_two_mode(family).value, abs=1e-6)
        assert not res.lower_bound_only

    def test_degenerate_a_block_flagged(self):
        family = ssts(SstsParams(1.0, 0.8))  # local symplectic eigenvalue 3
        big = la.block_diag(family.cm, 3.0 * np.eye(2))
        perm = [0, 1, 4, 5, 2, 3]
        state = GaussianState(big[np.ix_(perm, perm)], 2, 1)
        assert nfg_numeric(state).lower_bound_only

    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_flag_matches_williamson(self, rng, n_a, n_b):
        ka = 2 * n_a
        for i in range(30):
            planted = i % 3 == 0
            state = (planted_degenerate_state if planted else random_state)(rng, n_a, n_b)
            flag = nfg_numeric(state).lower_bound_only
            assert flag == williamson(state.cm[:ka, :ka]).degeneracy_flag
            assert flag or not planted

    def test_runs_no_williamson_decomposition(self, rng, monkeypatch):
        planted, generic = planted_degenerate_state(rng, 2, 2), random_state(rng, 2, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("Williamson decomposition called")

        monkeypatch.setattr(nfg.states, "williamson", refuse)
        monkeypatch.setattr(nfg.correlation, "williamson", refuse, raising=False)
        monkeypatch.setattr(np.linalg, "eigh", refuse)  # no eigenvectors at all
        assert nfg_numeric(planted).lower_bound_only
        assert not nfg_numeric(generic).lower_bound_only

    @pytest.mark.parametrize(
        "n_a, n_b, correlated, expected, sides",
        [
            (2, 1, True, [], "A"),
            (2, 2, True, ["svd"], "AB"),
            (3, 1, True, ["cholesky", "eigvalsh", "solve", "cholesky", "solve", "svd"], "AB"),
            (2, 1, False, [], ""),
            (1, 2, True, [], "B"),
        ],
    )
    def test_one_cholesky_of_a_per_request(
        self, rng, monkeypatch, n_a, n_b, correlated, expected, sides
    ):
        # nfg_numeric then nfg_upper_bound on a fresh state.  With n_a >= 2
        # the flag and the spectrum share the state's one factor of A: A is
        # factored, the flag decided (in closed form for two A modes, by an
        # eigensolve for three), C whitened, B factored and W decomposed,
        # and the bound reads the kept spectrum.  A two-mode side is
        # factored in Python floats (`_cholesky_4`), so (2+1) and (1+2) run
        # no LAPACK call at all and (2+2) only the SVD of the W it forms in
        # floats; a one-mode side takes the scalar 2 x 2
        # factor, which is not counted here.  A product state factors
        # nothing, and a single A mode runs no flag.
        if correlated:
            state = random_state(rng, n_a, n_b)
        else:
            state = GaussianState(la.block_diag(random_cm(rng, n_a), random_cm(rng, n_b)), n_a, n_b)
        calls = linalg_calls(monkeypatch)
        factored, cholesky, cholesky_4 = [], np.linalg.cholesky, nfg.states._cholesky_4

        def spy(m):
            factored.append(m.tolist())
            return cholesky(m)

        def spy_4(rows, p=0):
            factored.append([row[p : p + 4] for row in rows[p : p + 4]])
            return cholesky_4(rows, p)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        monkeypatch.setattr(nfg.states, "_cholesky_4", spy_4)
        nfg_numeric(state)
        nfg_upper_bound(state)
        assert calls == expected
        ka = 2 * n_a
        blocks = {"A": state.cm[:ka, :ka].tolist(), "B": state.cm[ka:, ka:].tolist()}
        assert factored == [blocks[side] for side in sides]

    @pytest.mark.parametrize(
        "n_a, bound_calls, flag_calls",
        [(2, [], []), (3, ["cholesky", "solve", "cholesky", "solve", "svd"], ["eigvalsh"])],
    )
    def test_bound_alone_then_the_flag(self, rng, monkeypatch, n_a, bound_calls, flag_calls):
        # The bound alone takes the spectrum's own factors; the state keeps
        # L_A, so a later nfg_numeric only reads it for the flag: in Python
        # floats for two A modes, by one eigensolve for three.  At (2+1) the
        # spectrum runs in Python floats too.
        state = random_state(rng, n_a, 1)
        calls = linalg_calls(monkeypatch)
        nfg_upper_bound(state)
        assert calls == bound_calls
        nfg_numeric(state)
        assert calls[len(bound_calls) :] == flag_calls

    def test_mean_independence(self, rng):
        state = GaussianState(ssts(SstsParams(1.0, 0.9)).cm, 1, 1, rng.normal(size=4))
        assert nfg_numeric(state).value == pytest.approx(
            nfg_two_mode(state).value, abs=1e-10
        )

    def test_determinant_conserved_along_search_path(self, rng):
        for _ in range(10):
            state = random_state(rng, 2, 1)
            thetas = rng.uniform(0.0, np.pi / 2, 2)
            s = la.block_diag(rotation(thetas[0]), rotation(thetas[1]), np.eye(2))
            rotated = s @ state.cm @ s.T
            assert np.linalg.det(rotated) == pytest.approx(
                np.linalg.det(state.cm), rel=1e-10
            )

    def test_seed_ignores_environment(self, monkeypatch):
        state = random_state(np.random.default_rng(0), 2, 2)
        base = nfg_numeric(state)
        monkeypatch.setenv("NFG_SEED", "7")
        again = nfg_numeric(state)
        assert again.value == base.value
        assert np.array_equal(again.optimizer_theta, base.optimizer_theta)

    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_dominates_brute_force_grid(self, rng, n_a, n_b):
        for _ in range(3):
            state = random_state(rng, n_a, n_b)
            res = nfg_numeric(state)
            scores = brute_force_nfg(state, 7)
            assert res.value >= scores.max() - 1e-12
            assert res.value == pytest.approx(scores[(-1,) * n_a], abs=1e-9)
            assert np.array_equal(res.optimizer_theta, np.full(n_a, np.pi / 2))

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 2)])
    def test_optimizer_theta_attains_value(self, rng, n_a, n_b):
        for _ in range(3):
            state = random_state(rng, n_a, n_b)
            res = nfg_numeric(state)
            s = williamson(state.cm[: 2 * n_a, : 2 * n_a]).s
            rot = la.block_diag(*[rotation(t) for t in res.optimizer_theta])
            u = GaussianUnitary(np.linalg.solve(s, rot @ s))
            rotated = apply_gaussian_unitary(state, u, "A")
            assert c_squared(state, rotated) == pytest.approx(res.value, abs=1e-9)

    def test_bad_partition_rejected(self, rng):
        with pytest.raises(ValueError):
            nfg_numeric(random_state(rng, 1, 0))

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: nfg_two_mode(tmsv(0.5)),
            lambda: nfg_numeric(tmsv(0.5)),
            lambda: nfg_closed_form(StandardFormParams(3.0, 3.0, 2.0, -2.0)),
            lambda: nfg_after_channel_closed_form(
                StandardFormParams(3.0, 3.0, 2.0, -2.0),
                GaussianChannel(np.eye(2), np.zeros((2, 2))),
            ),
        ],
        ids=["two_mode", "numeric", "closed_form", "after_channel_closed_form"],
    )
    def test_optimizer_theta_is_read_only(self, compute):
        res = compute()
        with pytest.raises(ValueError):
            res.optimizer_theta[0] = 0.0
        assert np.array_equal(res.optimizer_theta, [np.pi / 2])

    @pytest.mark.parametrize("n_a", [1, 2, 3])
    def test_optimizer_theta_is_one_array_per_mode_count(self, rng, n_a):
        # every result at one n_a holds the same read-only pi/2 vector
        thetas = [nfg_numeric(random_state(rng, n_a, n_b)).optimizer_theta for n_b in (1, 2, 1)]
        assert all(theta is thetas[0] for theta in thetas)
        assert not thetas[0].flags.writeable
        assert thetas[0].tolist() == [np.pi / 2] * n_a


class TestPassiveStabilizers:
    """The block value against the whole stabilizer of a degenerate A block:
    U(n_a) on A's Williamson frame, eigenphases within [-pi/2, pi/2]."""

    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (2, 2), (3, 1)])
    def test_no_draw_beats_the_block_value(self, rng, n_a, n_b):
        for _ in range(5):
            state = planted_degenerate_state(rng, n_a, n_b)
            res = nfg_numeric(state)
            assert res.lower_bound_only
            a = state.cm[: 2 * n_a, : 2 * n_a]
            s = williamson(a).s
            for _ in range(40):
                u = GaussianUnitary(random_passive_stabilizer(rng, s))
                moved = apply_gaussian_unitary(state, u, "A")
                assert np.abs(moved.cm[: 2 * n_a, : 2 * n_a] - a).max() <= 1e-9 * np.abs(a).max()
                assert c_squared(state, moved) <= res.value + 1e-12

    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (2, 2), (3, 1)])
    def test_value_attained_at_i_times_identity(self, rng, n_a, n_b):
        for _ in range(5):
            state = planted_degenerate_state(rng, n_a, n_b)
            value = nfg_numeric(state).value
            s = williamson(state.cm[: 2 * n_a, : 2 * n_a]).s
            at_i = GaussianUnitary(passive_stabilizer(s, 1j * np.eye(n_a)))
            assert c_squared(state, apply_gaussian_unitary(state, at_i, "A")) == pytest.approx(
                value, abs=1e-9
            )
            # Past the phase range the objective does exceed it: parity on A
            # (U = -I) reaches the upper bound.
            parity = GaussianUnitary(passive_stabilizer(s, -np.eye(n_a)))
            assert c_squared(state, apply_gaussian_unitary(state, parity, "A")) > value + 1e-6


class TestGaussianChannel:
    def test_rejects_asymmetric_noise(self):
        with pytest.raises(ValueError):
            GaussianChannel(np.eye(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            GaussianChannel(np.eye(2), -np.eye(2))

    def test_rejects_insufficient_noise(self):
        # det M = 0.25 < (det K - 1)^2 = 1
        with pytest.raises(ValueError):
            GaussianChannel(np.zeros((2, 2)), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianChannel(np.eye(2), np.eye(4))
        with pytest.raises(ValueError):
            GaussianChannel(np.eye(3), np.eye(3))

    def test_identity_channel_is_valid(self):
        ch = GaussianChannel(np.eye(2), np.zeros((2, 2)))
        assert ch.n_modes == 1
        assert np.array_equal(ch.d_bar, np.zeros(2))

    def test_rejects_multimode_channel_passing_the_one_mode_determinant_test(self):
        # det M = 100 >= (det K - 1)^2 = 9, but mode 1 alone is an amplifier
        # of gain 4 with unit noise, below the 3 its gain requires.
        with pytest.raises(ValueError):
            GaussianChannel(np.diag([2.0, 2.0, 1.0, 1.0]), np.diag([1.0, 1.0, 10.0, 10.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_k_past_the_limit_is_refused_before_any_product(self, scale):
        # K Delta K^T would overflow to a NaN eigenvalue, which no comparison
        # may read as "completely positive".
        with pytest.raises(ValueError, match=r"at most 1e\+150"):
            GaussianChannel(scale * np.eye(2), np.eye(2))

    @staticmethod
    def exact_det(a: np.ndarray) -> Fraction:
        (p, q), (r, s) = [[Fraction(float(x)) for x in row] for row in a]
        return p * s - q * r

    def test_ill_conditioned_noise_gets_the_exact_verdict(self, rng):
        # One mode with M > 0: completely positive iff det M >= (det K - 1)^2.
        # M is nearly rank one, with det M 10% either side of the bound, so
        # max|M| reaches ~1e4 and beyond.  The truth is the exact determinant
        # of the stored floats; a draw is judged when its relative margin
        # exceeds 1e-6 and its smallest eigenvalue, whose modulus is at least
        # |det M - (det K - 1)^2| / (2 tr M), is twice the allowance from 0.
        eps32 = 32.0 * np.finfo(float).eps
        judged = 0
        for _ in range(2000):
            k = rng.normal(size=(2, 2)) * 10 ** rng.uniform(-2, 2)
            v = rng.normal(size=2)
            m = np.outer(v, v) + 10 ** rng.uniform(-8, 0) * np.eye(2)
            m *= np.sqrt(rng.uniform(0.9, 1.1) * (np.linalg.det(k) - 1) ** 2 / np.linalg.det(m))
            need = (self.exact_det(k) - 1) ** 2
            gap = self.exact_det(m) - need
            allowance = max(1e-9, eps32 * max(np.abs(k).max() ** 2, np.abs(m).max()))
            trace = Fraction(float(m[0, 0])) + Fraction(float(m[1, 1]))
            if abs(gap) <= need / 10**6 or abs(gap) <= 4 * Fraction(allowance) * trace:
                continue
            judged += 1
            if gap > 0:
                GaussianChannel(k, m)
            else:
                with pytest.raises(ValueError, match="invalid channel"):
                    GaussianChannel(k, m)
        assert judged >= 1900

    @pytest.mark.parametrize("scale, allowance", [(1.0, 1e-9), (1e8, 32.0 * np.finfo(float).eps * 1e8)])
    def test_noise_straddling_the_allowance_gets_the_plain_eigenvalue_verdict(
        self, rng, scale, allowance
    ):
        # Up to max|M| = 1 the allowance is the 1e-9 floor; at max|M| = 1e8
        # it is the rounding term 32 eps max|M|.  A passive K (max|K| <= 1)
        # leaves Delta - K Delta K^T at rounding level, so the smallest
        # eigenvalue is M's planted one.
        for n in (1, 2, 3):
            delta = symplectic_form(n)
            for step in (0.5, 0.9, 1.1, 2.0):
                k = passive_stabilizer(np.eye(2 * n), haar_unitary(rng, n))
                m = np.diag(np.append(scale * rng.uniform(0.5, 1.0, 2 * n - 1), -step * allowance))
                m[0, 0] = scale
                plain = np.linalg.eigvalsh(m + 1j * (delta - k @ delta @ k.T))[0] >= -allowance
                assert plain == (step <= 1.0)
                if plain:
                    GaussianChannel(k, m)
                else:
                    with pytest.raises(ValueError, match="invalid channel"):
                        GaussianChannel(k, m)

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 2), (1, 3)])
    def test_accepts_multimode_channels_read_off_a_dilation(self, n_a, n_b, rng):
        for seed in rng.integers(2**32, size=100):
            state = random_state(rng, n_a, n_b)
            expected = through_thermal_dilation(np.random.default_rng(seed), state)
            ch = dilation_channel(np.random.default_rng(seed), n_b)
            out = apply_channel(state, ch, "B").cm
            assert np.abs(out - expected.cm).max() <= 1e-12 * np.abs(expected.cm).max()


class TestApplyChannel:
    def test_identity_channel_leaves_state_unchanged(self, rng):
        state = random_state(rng, displaced=True)
        ch = GaussianChannel(np.eye(2), np.zeros((2, 2)))
        out = apply_channel(state, ch, "B")
        assert np.array_equal(out.cm, state.cm)
        assert np.array_equal(out.mean, state.mean)

    def test_erasing_channel_produces_product_state(self):
        state = ssts(SstsParams(1.0, 0.9))
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2))
        out = apply_channel(state, ch, "B")
        assert np.array_equal(out.cm[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(out.cm[2:, 2:], np.eye(2))
        assert nfg_two_mode(out).value == 0.0

    def test_attenuator_output_is_physical(self):
        eta = 0.5
        ch = GaussianChannel(np.sqrt(eta) * np.eye(2), (1.0 - eta) * np.eye(2))
        out = apply_channel(tmsv(0.5), ch, "B")  # construction revalidates
        assert out.n_a == out.n_b == 1

    def test_displacement_moves_only_b(self):
        state = ssts(SstsParams(1.0, 0.5))
        ch = GaussianChannel(np.eye(2), np.zeros((2, 2)), [3.0, -1.0])
        out = apply_channel(state, ch, "B")
        assert np.array_equal(out.mean, [0.0, 0.0, 3.0, -1.0])
        assert np.array_equal(out.cm, state.cm)

    def test_a_block_untouched_bitwise(self, rng):
        state = random_state(rng)
        out = apply_channel(state, random_channel(rng), "B")
        assert np.array_equal(out.cm[:2, :2], state.cm[:2, :2])

    def test_dimension_mismatch_rejected(self, rng):
        state = random_state(rng, 2, 2)
        with pytest.raises(ValueError, match="does not match side B"):
            apply_channel(state, random_channel(rng), "B")
        two_mode = GaussianChannel(np.eye(4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="does not match side A"):
            apply_channel(random_state(rng, 1, 2), two_mode, "A")
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            apply_channel(random_state(rng), random_channel(rng), "global")


class TestAfterChannelClosedForm:
    def test_identity_channel_reduces_exactly(self, rng):
        ch = GaussianChannel(np.eye(2), np.zeros((2, 2)))
        for _ in range(10):
            p, _, _ = standard_form(random_state(rng))
            assert nfg_after_channel_closed_form(p, ch).value == nfg_closed_form(p).value

    def test_erasing_channel_gives_exact_zero(self):
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2))
        p, _, _ = standard_form(ssts(SstsParams(1.0, 0.9)))
        res = nfg_after_channel_closed_form(p, ch)
        assert res.value == 0.0
        assert res.method == "channel_closed_form"

    def test_noiseless_symplectic_channel_preserves_value(self, rng):
        # M = 0 with det K = 1: the measure is unchanged.  For K with an
        # exactly representable unit determinant the reduction is bitwise,
        # squeezers up to g = 1e150 included: there max|K|^2 = g^2 while
        # det K = 1, so a scaling taken from max|K| alone would underflow n1.
        p, _, _ = standard_form(random_state(rng))
        squeezers = [np.diag(k) for g in (1e80, 1e100, 1e150) for k in ([g, 1 / g], [1 / g, g])]
        for k in (np.diag([2.0, 0.5]), np.array([[1.0, 0.3], [0.0, 1.0]]), *squeezers):
            ch = GaussianChannel(k, np.zeros((2, 2)))
            assert nfg_after_channel_closed_form(p, ch).value == nfg_closed_form(p).value
        ch = GaussianChannel(rotation(0.7), np.zeros((2, 2)))
        assert nfg_after_channel_closed_form(p, ch).value == pytest.approx(
            nfg_closed_form(p).value, rel=1e-12
        )

    def test_consistent_with_apply_then_compute(self, rng):
        for _ in range(50):
            p, _, _ = standard_form(random_state(rng))
            ch = random_channel(rng)
            direct = nfg_after_channel_closed_form(p, ch).value
            applied = nfg_two_mode(apply_channel(standard_state(p), ch, "B")).value
            assert direct == pytest.approx(applied, abs=1e-8)

    def test_channel_displacement_is_irrelevant(self, rng):
        p, _, _ = standard_form(random_state(rng))
        ch = GaussianChannel(0.5 * np.eye(2), np.eye(2))
        moved = GaussianChannel(0.5 * np.eye(2), np.eye(2), [5.0, -2.0])
        assert (
            nfg_after_channel_closed_form(p, ch).value
            == nfg_after_channel_closed_form(p, moved).value
        )

    def test_no_numpy_linear_algebra_runs(self, rng, monkeypatch):
        p, _, _ = standard_form(random_state(rng))
        ch = random_channel(rng)
        calls = linalg_calls(monkeypatch)
        nfg_after_channel_closed_form(p, ch)
        assert calls == []

    def test_multimode_channel_rejected(self, rng):
        ch = GaussianChannel(np.eye(4), np.zeros((4, 4)))
        p, _, _ = standard_form(random_state(rng))
        with pytest.raises(ValueError):
            nfg_after_channel_closed_form(p, ch)


def huge_standard_state() -> GaussianState:
    """[[3I, 2Z], [2Z, 3I]] scaled by 1e200: N = 24/49, while ab ~ 1e401
    overflows a double."""
    eye, z = np.eye(2), np.diag([1.0, -1.0])
    return GaussianState(1e200 * np.block([[3.0 * eye, 2.0 * z], [2.0 * z, 3.0 * eye]]), 1, 1)


class TestClosedFormScale:
    def test_huge_state_keeps_its_value(self):
        state = huge_standard_state()
        p, _, _ = standard_form(state)
        assert nfg_two_mode(state).value == pytest.approx(24.0 / 49.0, rel=1e-15)
        assert nfg_closed_form(p).value == pytest.approx(24.0 / 49.0, rel=1e-15)

    def test_huge_state_after_channel_matches_apply_then_compute(self):
        state = huge_standard_state()
        p, _, _ = standard_form(state)
        # a vacuum-noise attenuator, and one whose noise matches the state
        for ch in (
            GaussianChannel(np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2)),
            GaussianChannel(0.5 * np.eye(2), 1e200 * np.eye(2)),
        ):
            applied = check_monotonicity(state, ch).after
            direct = nfg_after_channel_closed_form(p, ch).value
            assert direct == pytest.approx(applied, rel=1e-12)

    @pytest.mark.parametrize(
        "k, m",
        [
            ([1e100, 1e100], [2e200, 2e200]),
            ([1e150, 1e150], [1e300, 1e300]),
            ([1e-50, 1e-50], [1e50, 1e50]),
            ([1e-100, 1e-100], [1e100, 1e100]),
            ([1e-150, 1e-150], [1e150, 1e150]),
            # A squeezer with noise on one quadrature: n1 and n3 are 1
            # while max|K| sqrt(max|M|) is 1e300.
            ([1e150, 1e-150], [1e300, 0.0]),
            ([1e150, 1e-200], [1e300, 1e-300]),
        ],
    )
    def test_extreme_channel_matches_apply_then_compute(self, k, m):
        # K and M diagonal: (det K)^2 would overflow, or K and M underflow,
        # without the channel's own power-of-two scaling.
        eye, z = np.eye(2), np.diag([1.0, -1.0])
        state = GaussianState(np.block([[3.0 * eye, 2.0 * z], [2.0 * z, 3.0 * eye]]), 1, 1)
        p, _, _ = standard_form(state)
        ch = GaussianChannel(np.diag(k), np.diag(m))
        applied = check_monotonicity(state, ch).after
        direct = nfg_after_channel_closed_form(p, ch).value
        if applied == 0.0:
            assert direct == 0.0
        else:
            assert direct == pytest.approx(applied, rel=1e-12)

    @pytest.mark.parametrize("exponent", [1, 2, 300, 900])
    def test_power_of_two_scaling_keeps_the_bits(self, rng, exponent):
        # The form, and M with it, scaled up by 2^exponent (scaled down it
        # would not be physical): the same value bit for bit.
        for _ in range(20):
            p, _, _ = standard_form(random_state(rng))
            ch = random_channel(rng)
            scaled = StandardFormParams(*(np.ldexp(x, exponent) for x in (p.a, p.b, p.c, p.d)))
            moved = GaussianChannel(ch.k, np.ldexp(ch.m_noise, exponent))
            assert nfg_closed_form(scaled).value == nfg_closed_form(p).value
            assert (
                nfg_after_channel_closed_form(scaled, moved).value
                == nfg_after_channel_closed_form(p, ch).value
            )

    def test_nonpositive_denominator_raises_value_error(self):
        # A singular K with M = 0, K = M = 0 included, is no valid channel
        # (GaussianChannel refuses it); the closed form raises, also under
        # python -O.  The closed form reads the rows a channel keeps.
        p = StandardFormParams(3.0, 3.0, 2.0, -2.0)
        for k in (np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))):
            m = np.zeros((2, 2))
            not_a_channel = SimpleNamespace(
                n_modes=1, k=k, m_noise=m, _k_rows=k.tolist(), _m_rows=m.tolist()
            )
            with pytest.raises(ValueError, match="denominator"):
                nfg_after_channel_closed_form(p, not_a_channel)


class TestMonotonicity:
    def test_identity_channel(self):
        state = ssts(SstsParams(1.0, 0.7))
        rep = check_monotonicity(state, GaussianChannel(np.eye(2), np.zeros((2, 2))))
        assert rep.before == rep.after
        assert rep.holds and rep.slack == 0.0

    def test_erasing_channel(self):
        state = ssts(SstsParams(1.0, 0.9))
        rep = check_monotonicity(state, GaussianChannel(np.zeros((2, 2)), np.eye(2)))
        assert rep.after == 0.0
        assert rep.holds and rep.slack == rep.before

    def test_random_channels_never_increase_the_measure(self, rng):
        for _ in range(50):
            state, ch = random_state(rng), random_channel(rng)
            rep = check_monotonicity(state, ch)
            assert rep.holds
            assert rep.after <= rep.before + 1e-10
            assert rep.before == nfg_two_mode(state).value
            assert rep.after == nfg_two_mode(apply_channel(state, ch, "B")).value

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 2), (3, 2)])
    def test_multimode_channels_on_b_do_not_increase_the_measure(self, rng, n_a, n_b):
        # check_monotonicity takes every partition; the module notes prove
        # that the measure cannot rise.
        for i in range(40):
            state = random_state(rng, n_a, n_b)
            ch = dilation_channel(rng, n_b, scale=0.4 if i % 2 else 0.02)
            rep = check_monotonicity(state, ch)
            assert rep.holds
            assert rep.before == nfg_numeric(state).value
            assert rep.after == nfg_numeric(apply_channel(state, ch, "B")).value
            assert rep.after <= rep.before + 1e-13


#: Partitions from (1+1) to (3+3) for the properties the module notes prove.
PROOF_PARTITIONS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 3)]


def swapped(state: GaussianState) -> GaussianState:
    """The state with subsystems A and B exchanged."""
    ka = 2 * state.n_a
    perm = np.r_[ka : state.cm.shape[0], :ka]
    return GaussianState(state.cm[np.ix_(perm, perm)], state.n_b, state.n_a, state.mean[perm])


class TestPartitionProperties:
    """The properties the module notes prove for every partition: channels
    on either side lower each sorted mu, the measure is symmetric in A and B,
    and an uncorrelated ancilla on either side leaves it unchanged."""

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("n_a, n_b", PROOF_PARTITIONS)
    def test_channel_lowers_each_sorted_mu(self, rng, side, n_a, n_b):
        for i in range(15):
            state = random_state(rng, n_a, n_b)
            ch = dilation_channel(rng, n_a if side == "A" else n_b, 0.4 if i % 2 else 0.02)
            out = apply_channel(state, ch, side)
            # both spectra come sorted ascending: reversed singular values,
            # zeros padded in front
            mu_out, mu = np.asarray(out._correlation_spectrum), np.asarray(state._correlation_spectrum)
            assert np.all(mu_out <= mu + 1e-13)
            assert nfg_numeric(out).value <= nfg_numeric(state).value + 1e-13
            assert nfg_upper_bound(out) <= nfg_upper_bound(state) + 1e-13

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("n_a, n_b", PROOF_PARTITIONS)
    def test_rotation_objective_never_rises(self, rng, side, n_a, n_b):
        # c_squared at pi/2 on every A mode in A's Williamson frame, from the
        # fidelity and the Williamson code alone: no correlation spectrum.
        for i in range(4):
            state = random_state(rng, n_a, n_b)
            ch = dilation_channel(rng, n_a if side == "A" else n_b, 0.4 if i % 2 else 0.02)
            before, after = (
                brute_force_nfg(s, 2)[(-1,) * n_a] for s in (state, apply_channel(state, ch, side))
            )
            assert after <= before + 1e-10

    @pytest.mark.parametrize("n_a, n_b", PROOF_PARTITIONS)
    def test_channel_on_a_is_the_swapped_channel_on_b(self, rng, n_a, n_b):
        for _ in range(5):
            state = random_state(rng, n_a, n_b, displaced=True)
            ch = dilation_channel(rng, n_a)
            ch = GaussianChannel(ch.k, ch.m_noise, rng.normal(size=2 * n_a))
            direct = apply_channel(state, ch, "A")
            via = swapped(apply_channel(swapped(state), ch, "B"))
            assert np.abs(direct.cm - via.cm).max() <= 1e-13 * np.abs(via.cm).max()
            assert np.array_equal(direct.mean, via.mean)
            assert np.array_equal(direct.cm[2 * n_a :, 2 * n_a :], state.cm[2 * n_a :, 2 * n_a :])

    @pytest.mark.parametrize("n_a, n_b", PROOF_PARTITIONS)
    def test_swap_symmetry(self, rng, n_a, n_b):
        for _ in range(20):
            state = random_state(rng, n_a, n_b)
            swap = swapped(state)
            value, bound = nfg_numeric(state).value, nfg_upper_bound(state)
            assert nfg_numeric(swap).value == pytest.approx(value, rel=1e-13, abs=0.0)
            assert nfg_upper_bound(swap) == pytest.approx(bound, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("n_a, n_b", PROOF_PARTITIONS)
    def test_uncorrelated_ancilla_leaves_the_measure(self, rng, side, n_a, n_b):
        # Every other ancilla has the largest symplectic eigenvalue of A: on
        # A that makes A's spectrum degenerate, which sets lower_bound_only
        # and leaves the value as it is.
        for i in range(10):
            state = random_state(rng, n_a, n_b)
            shared = i % 2 == 1
            nu = williamson(state.cm[: 2 * n_a, : 2 * n_a]).nus[0] if shared else None
            grown = with_ancilla(state, side, random_cm(rng, 1, nus=None if nu is None else [nu]))
            res = nfg_numeric(grown)
            assert res.value == pytest.approx(nfg_numeric(state).value, rel=1e-13, abs=0.0)
            assert nfg_upper_bound(grown) == pytest.approx(
                nfg_upper_bound(state), rel=1e-13, abs=0.0
            )
            assert res.lower_bound_only == (shared and side == "A")


class TestTwoModeClosedForm:
    """The (1+1) spectrum in closed form against a wider partition's path.
    A vacuum ancilla sends a (1+1) state to (2+1) or (1+2), whose spectrum
    the float kernel of a one-mode side computes, and, by ancilla
    invariance (step 4 of the module notes), leaves mu as it is."""

    @staticmethod
    def closed_and_generic(state: GaussianState) -> tuple[tuple, tuple]:
        wide = with_ancilla(state, "B", np.eye(2))
        closed = (nfg_two_mode(state).value, nfg_upper_bound(state))
        return closed, (nfg_numeric(wide).value, nfg_upper_bound(wide))

    def assert_paths_agree(self, state: GaussianState):
        closed, generic = self.closed_and_generic(state)
        assert closed[1] >= closed[0]  # bound >= N with zero slack
        if closed != pytest.approx(generic, rel=2e-15, abs=0.0):
            # The two paths round apart, by up to 2.1e-15 on N in 6000
            # draws, where the SVD's value lay 2.0e-15 from the 50-digit
            # reference; there the reference decides, and it must side with
            # the closed form.
            assert closed == pytest.approx(reference_values(state), rel=2e-15, abs=0.0)

    def test_stream_shaped_draws(self, rng):
        for _ in range(2000):
            self.assert_paths_agree(stream_shaped_state(rng))

    @pytest.mark.parametrize("n_bar", 10.0 ** np.arange(-3.0, 14.0))
    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 0.99, 0.999])
    def test_locally_rotated_ssts(self, rng, n_bar, mu):
        for _ in range(3):
            local = la.block_diag(*(rotation(t) for t in rng.uniform(0.0, 2 * np.pi, 2)))
            family = ssts(SstsParams(n_bar, mu))
            self.assert_paths_agree(apply_global(family, GaussianUnitary(local)))

    @pytest.mark.parametrize("c", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_weak_standard_forms_keep_relative_precision(self, c):
        p = StandardFormParams(3.0, 2.0, c, -c / 2)
        state = standard_state(p)
        closed, generic = self.closed_and_generic(state)
        assert closed == pytest.approx(generic, rel=2e-15, abs=0.0)
        assert closed[0] == pytest.approx(nfg_closed_form(p).value, rel=2e-15, abs=0.0)

    def test_product_states_score_exactly_zero(self, rng):
        for sign in (1.0, -1.0):  # -0.0 cross entries are zero too
            g = la.block_diag(random_cm(rng, 1), random_cm(rng, 1))
            g[:2, 2:] = g[2:, :2] = sign * 0.0
            state = GaussianState(g, 1, 1)
            closed, generic = self.closed_and_generic(state)
            assert closed == generic == (0.0, 0.0)
            assert not np.any(np.signbit(closed))
            assert np.array_equal(state._correlation_spectrum, [0.0, 0.0])

    @pytest.mark.parametrize("entry", [(0, 2), (0, 3), (1, 2), (1, 3)])
    def test_one_nonzero_cross_entry_is_correlated(self, entry):
        # The C = 0 test reads all four entries of C from the state's rows.
        g = 3.0 * np.eye(4)
        g[entry] = g[entry[::-1]] = 1.0
        state = GaussianState(g, 1, 1)
        closed, generic = self.closed_and_generic(state)
        assert closed == pytest.approx(generic, rel=2e-15, abs=0.0)
        assert closed[0] > 0.0 and state._correlation_spectrum[1] == pytest.approx(1.0 / 9.0)

    @pytest.mark.parametrize("a, c", [(3.0, 1.0), (3.0, 1e-310), (3e4, 5e-324)])
    @pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in (4, 5)])
    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (1, 2)])
    def test_one_nonzero_cross_entry_at_a_one_mode_side(self, n_a, n_b, entry, a, c):
        # a I with one cross entry c: mu = (c/a)^2 once, zeros elsewhere.
        # The entry is mirrored to its (1+2) place, so half the cases leave
        # the first column of W, or of W^T, zero: the QR takes the larger
        # column first and divides by no zero norm.  A subnormal c whitens to
        # a subnormal W, whose squares read 0, and the least subnormal
        # against a = 3e4 to W = 0, which the QR returns as zeros.
        if n_a == 1:
            entry = (5 - entry[0], 5 - entry[1])
        g = a * np.eye(6)
        g[entry] = g[entry[::-1]] = c
        state = GaussianState(g, n_a, n_b)
        mu = state._correlation_spectrum
        assert mu[:-1] == (0.0,) * (2 * n_b - 1) and not any(np.signbit(mu))
        value, bound = nfg_numeric(state).value, nfg_upper_bound(state)
        if c == 1.0:
            assert mu[-1] == pytest.approx(1.0 / 9.0, rel=2e-15, abs=0.0)
            assert (value, bound) == pytest.approx((1.0 / 17.0, 1.0 / 9.0), rel=2e-15, abs=0.0)
        else:
            assert mu[-1] == value == bound == 0.0

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_correlated_singular_block_raises_the_factorization_error(self, side):
        with pytest.raises(ValueError) as generic:
            nfg.states._cholesky(squeezed_block(16.0))
        with pytest.raises(ValueError) as closed:
            nfg_two_mode(squeezed_correlated(16.0, side))
        assert str(closed.value) == str(generic.value)

    def test_singular_b_block_raises_where_lapack_cholesky_fails(self):
        # The scalar factorization takes LAPACK's steps, so a B block squeezed
        # past double precision raises exactly where np.linalg.cholesky fails.
        for r in np.linspace(4.0, 17.0, 261):
            try:
                np.linalg.cholesky(squeezed_block(r))
                factors = True
            except np.linalg.LinAlgError:
                factors = False
            state = squeezed_correlated(r, "B")
            if factors:
                assert 0.0 <= nfg_upper_bound(state) < 1.0
            else:
                with pytest.raises(ValueError, match="singular at double precision"):
                    nfg_upper_bound(state)

    @pytest.mark.parametrize("ancilla_side", ["A", "B"])
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("r", np.arange(4.0, 10.5, 0.5))
    def test_squeezed_states_keep_full_precision(self, r, side, ancilla_side):
        # An eigensolve of W^T W squares W's conditioning: with B squeezed
        # and the ancilla on B it put N 2.4e-6, 7.1e-3 and 1.0 off at r = 6,
        # 8 and 9.5.  The raise set is the next test's.
        wide = with_ancilla(squeezed_correlated(r, side), ancilla_side, np.eye(2))
        try:
            generic = (nfg_numeric(wide).value, nfg_upper_bound(wide))
        except ValueError as exc:
            assert "singular at double precision" in str(exc)
            return
        assert generic == pytest.approx(reference_values(wide), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("ancilla_side", ["A", "B"])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_generic_path_raises_where_the_closed_form_does(self, side, ancilla_side):
        for r in np.linspace(4.0, 17.0, 261):
            state = squeezed_correlated(r, side)
            wide = with_ancilla(state, ancilla_side, np.eye(2))
            raised = []
            for call, s in ((nfg_two_mode, state), (nfg_numeric, wide)):
                try:
                    call(s)
                except ValueError as exc:
                    assert "singular at double precision" in str(exc)
                    raised.append(True)
                else:
                    raised.append(False)
            assert raised[0] == raised[1], r

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_squeezed_two_mode_block_raises_where_lapack_cholesky_fails(self, side):
        # The case above with the ancilla mixed into the squeezed mode by a
        # 50:50 beam splitter: a two-mode block squeezed past double
        # precision, factored by the 4-row Cholesky at (2+1) (side A) or
        # (1+2) (side B).  It takes LAPACK's steps, so it fails exactly
        # where np.linalg.cholesky fails on the stored block; the (1+1)
        # closed form of the unmixed state parts from both at 71 of the 261
        # squeezings, so it is not the reference here.
        self.assert_raises_where_lapack_cholesky_fails(side, wide=False)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_squeezed_block_at_two_plus_two_raises_where_lapack_cholesky_fails(self, side):
        # The case above with a vacuum ancilla on the other side too: at
        # (2+2) both blocks are factored by the 4-row Cholesky, and W is
        # formed in floats before its one SVD.
        self.assert_raises_where_lapack_cholesky_fails(side, wide=True)

    @staticmethod
    def assert_raises_where_lapack_cholesky_fails(side: str, wide: bool):
        h = np.sqrt(0.5) * np.eye(2)
        p = 0 if side == "A" else 2
        split = np.eye(6)
        split[p : p + 4, p : p + 4] = np.block([[h, h], [-h, h]])
        if wide:  # the ancilla on A moves B down by one mode
            p = 0 if side == "A" else 4
        outcomes = set()
        for r in np.linspace(4.0, 17.0, 261):
            g = split @ with_ancilla(squeezed_correlated(r, side), side, np.eye(2)).cm @ split.T
            state = GaussianState(0.5 * (g + g.T), 1 + (side == "A"), 1 + (side == "B"))
            if wide:
                state = with_ancilla(state, "B" if side == "A" else "A", np.eye(2))
            try:
                np.linalg.cholesky(state.cm[p : p + 4, p : p + 4])
                factors = True
            except np.linalg.LinAlgError:
                factors = False
            if factors:
                assert 0.0 <= nfg_numeric(state).value <= nfg_upper_bound(state) < 1.0
            else:
                with pytest.raises(ValueError, match="singular at double precision"):
                    nfg_numeric(state)
            outcomes.add(factors)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n_bar", [1e8, 1e10, 1e13])
    def test_tmsv_past_double_precision_reads_the_clamp(self, n_bar):
        state = tmsv(np.arcsinh(np.sqrt(n_bar)))
        below_one = np.nextafter(1.0, 0.0)
        assert list(state._correlation_spectrum) == [1.0, 1.0]
        assert self.closed_and_generic(state) == ((below_one, below_one),) * 2

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 1), (2, 2), (1, 3), (3, 2)])
    def test_generic_spectrum_layout(self, rng, n_a, n_b):
        # 2 n_b entries, ascending, exact zeros in front for the directions
        # X cannot reach, and clipped at 1 on a pure state squeezed past
        # double precision, whose singular values round above 1.
        zeros = 2 * max(n_b - n_a, 0)
        for _ in range(10):
            mu = random_state(rng, n_a, n_b)._correlation_spectrum
            assert isinstance(mu, tuple)
            mu = np.asarray(mu)
            assert mu.shape == (2 * n_b,)
            assert np.all(mu[:zeros] == 0.0) and np.all(mu[zeros:] > 0.0)
            assert np.all(np.diff(mu) >= 0.0) and mu[-1] < 1.0
        for side in ("A", "B"):
            wide = with_ancilla(tmsv(np.arcsinh(np.sqrt(1e13))), side, np.eye(2))
            assert list(wide._correlation_spectrum) == [0.0] * (2 * wide.n_b - 2) + [1.0, 1.0]

    def test_no_numpy_linear_algebra_runs(self, rng, monkeypatch):
        pair, multimode = stream_shaped_state(rng), random_state(rng, 2, 1)
        calls = linalg_calls(monkeypatch)
        mu = pair._correlation_spectrum
        assert calls == []
        assert isinstance(mu, tuple) and mu[0] <= mu[1] <= 1.0
        multimode._correlation_spectrum
        assert calls == []  # (2+1): the float kernel of a one-mode side
