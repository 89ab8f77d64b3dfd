import warnings

import numpy as np
import pytest
import scipy.linalg as la

from nfg import (
    GaussianState,
    GaussianUnitary,
    c_squared,
    fidelity_f,
    overlap,
    purity,
    tmsv,
)

from nfg.overlap import _log_overlap, _mid_lower
from nfg.states import _ldl_4

from helpers import (
    apply_global,
    array_log_overlap,
    array_mid_factor,
    float_bits,
    linalg_calls,
    nfg_theta_objective,
    random_cm,
    random_state,
    random_symplectic,
    reference_log_overlap,
)


def thermal(n_bar: float) -> GaussianState:
    return GaussianState((1.0 + 2.0 * n_bar) * np.eye(2), 1, 0)


VACUUM = GaussianState(np.eye(2), 1, 0)


class TestOverlap:
    def test_vacuum_with_itself(self):
        res = overlap(VACUUM, VACUUM)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.log_value == pytest.approx(0.0, abs=1e-14)

    def test_thermal_self_overlap(self):
        assert overlap(thermal(1.0), thermal(1.0)).value == pytest.approx(1.0 / 3.0)

    def test_coherent_vs_vacuum(self):
        for alpha in (0.5, 1.0, 2.0):
            coh = GaussianState(np.eye(2), 1, 0, [np.sqrt(2.0) * alpha, 0.0])
            assert overlap(coh, VACUUM).value == pytest.approx(np.exp(-alpha * alpha), rel=1e-12)

    def test_log_value_consistent(self, rng):
        for _ in range(10):
            a, b = random_state(rng, displaced=True), random_state(rng, displaced=True)
            res = overlap(a, b)
            assert res.value == pytest.approx(np.exp(res.log_value), rel=1e-13)

    def test_log_value_survives_underflow(self):
        hot1 = GaussianState((1.0 + 2e200) * np.eye(4), 1, 1)
        hot2 = GaussianState((1.0 + 4e200) * np.eye(4), 1, 1)
        res = overlap(hot1, hot2)
        assert res.value == 0.0
        assert np.isfinite(res.log_value) and res.log_value < -900.0

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            overlap(VACUUM, random_state(rng))


class TestPurity:
    def test_vacuum(self):
        assert purity(VACUUM) == 1.0

    def test_thermal(self):
        assert purity(thermal(1.0)) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.5])
    def test_tmsv_is_pure(self, r):
        assert purity(tmsv(r)) == pytest.approx(1.0, rel=1e-10)

    def test_equals_self_overlap_bitwise(self, rng):
        for _ in range(10):
            state = random_state(rng, displaced=True)
            assert purity(state) == overlap(state, state).value

    def test_matches_inverse_sqrt_determinant(self, rng):
        state = random_state(rng, 2, 1)
        assert purity(state) == pytest.approx(
            1.0 / np.sqrt(np.linalg.det(state.cm)), rel=1e-12
        )

    @pytest.mark.parametrize("s", [9e307, 1.5e308, 1.79e308])
    def test_huge_thermal_state(self, s):
        # det(Gamma)^{-1/2} = 1/s; the mean of Gamma with itself must not
        # overflow on the way.
        assert purity(GaussianState(s * np.eye(2), 1, 0)) == pytest.approx(1.0 / s, rel=1e-12)


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        for _ in range(10):
            state = random_state(rng, displaced=True)
            assert fidelity_f(state, state) == pytest.approx(1.0, rel=1e-12)

    def test_thermal_vs_vacuum(self):
        # overlap 1/2, purities 1/3 and 1 -> F = (1/2)/sqrt(1/3)
        assert fidelity_f(thermal(1.0), VACUUM) == pytest.approx(np.sqrt(3.0) / 2.0)

    def test_different_mode_counts_rejected(self):
        with pytest.raises(ValueError, match="different mode counts"):
            fidelity_f(thermal(1.0), GaussianState(np.eye(4), 1, 1))

    def test_symmetry(self, rng):
        for _ in range(10):
            a, b = random_state(rng), random_state(rng, displaced=True)
            assert fidelity_f(a, b) == pytest.approx(fidelity_f(b, a), rel=1e-12)
            assert overlap(a, b).value == pytest.approx(overlap(b, a).value, rel=1e-12)

    def test_multiplicative_over_uncorrelated_ancilla(self, rng):
        for _ in range(10):
            a, b = random_state(rng, 1, 1), random_state(rng, 1, 1)
            anc = random_state(rng, 1, 0)
            big_a = GaussianState(la.block_diag(a.cm, anc.cm), 1, 2)
            big_b = GaussianState(la.block_diag(b.cm, anc.cm), 1, 2)
            assert fidelity_f(big_a, big_b) == pytest.approx(
                fidelity_f(a, b), rel=1e-10
            )

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            a, b = random_state(rng, displaced=True), random_state(rng, displaced=True)
            u = GaussianUnitary(random_symplectic(rng, 2), rng.normal(size=4))
            ua = apply_global(a, u)
            ub = apply_global(b, u)
            assert overlap(ua, ub).value == pytest.approx(
                overlap(a, b).value, rel=1e-10
            )

    def test_cauchy_schwarz(self, rng):
        for _ in range(20):
            a, b = random_state(rng), random_state(rng, displaced=True)
            assert overlap(a, b).value ** 2 <= purity(a) * purity(b) * (1.0 + 1e-10)
        state = random_state(rng)
        assert overlap(state, state).value ** 2 == pytest.approx(
            purity(state) * purity(state), rel=1e-12
        )


class TestCSquared:
    def test_identical_states(self, rng):
        state = random_state(rng)
        assert c_squared(state, state) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_vs_vacuum(self):
        assert c_squared(thermal(1.0), VACUUM) == pytest.approx(0.25)

    def test_strictly_below_one(self, rng):
        for _ in range(20):
            val = c_squared(random_state(rng, displaced=True), random_state(rng, displaced=True))
            assert 0.0 <= val < 1.0


class TestSingularCovariance:
    # A TMSV at n_bar = 1e13 is stored with c = a exactly: Gamma is singular
    # at double precision, though physical within the validation tolerance.
    @pytest.mark.parametrize(
        "call",
        [purity, lambda s: c_squared(s, s), lambda s: nfg_theta_objective(s, 0.5)],
        ids=["purity", "c_squared", "nfg_theta_objective"],
    )
    def test_clear_error(self, call):
        state = tmsv(np.arcsinh(np.sqrt(1e13)))
        with pytest.raises(ValueError, match="singular at double precision") as info:
            call(state)
        assert not isinstance(info.value, np.linalg.LinAlgError)


def scalar_pairs(rng: np.random.Generator, count: int) -> list[tuple[GaussianState, GaussianState]]:
    """``count`` random pairs, alternately one-mode and (1+1)-mode, half of
    them with both states displaced."""
    pairs = []
    for i in range(count):
        modes, displaced = ((1, 0), (1, 1))[i % 2], i % 4 < 2
        pairs.append(tuple(random_state(rng, *modes, displaced=displaced) for _ in range(2)))
    return pairs


#: The partitions above (1+1) modes that the all-sizes checks draw from.
LARGER_MODES = [(2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]


class TestScalarOverlap:
    """Overlaps of up to 4 rows run the scalar LDL^T `nfg.states._ldl_4`,
    and larger ones LAPACK's Cholesky; NumPy's Cholesky of the midpoint
    (`helpers.reference_log_overlap`) is the reference."""

    def test_matches_numpy_cholesky_path(self, rng):
        worst = 0.0
        for rho, sigma in scalar_pairs(rng, 5000):
            for a, b in ((rho, sigma), (rho, rho)):
                expected = reference_log_overlap(a, b)
                got = overlap(a, b).log_value
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-13

    def test_runs_no_linalg_call(self, rng, monkeypatch):
        pairs = scalar_pairs(rng, 8)
        calls = linalg_calls(monkeypatch)
        for rho, sigma in pairs:
            overlap(rho, sigma)
            purity(rho)
            fidelity_f(rho, sigma)
            c_squared(rho, sigma)
        assert calls == []

    def test_larger_states_match_numpy_cholesky(self, rng):
        # 3,000 pairs, 600 per partition, half of them displaced, each also
        # against itself.
        worst = 0.0
        for i in range(3000):
            modes, displaced = LARGER_MODES[i % 5], i % 10 < 5
            rho, sigma = (random_state(rng, *modes, displaced=displaced) for _ in range(2))
            for a, b in ((rho, sigma), (rho, rho)):
                expected = reference_log_overlap(a, b)
                got = overlap(a, b).log_value
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("modes", [(2, 1), (2, 2), (3, 1)])
    def test_larger_states_run_one_cholesky_per_overlap(self, rng, monkeypatch, modes):
        # The states are built first: their Simon verdict beyond 4 x 4 is
        # a Cholesky factor too, which is not the overlap's.  Each overlap
        # factors its midpoint once, and one with two means solves once.
        rho, sigma = random_state(rng, *modes), random_state(rng, *modes, displaced=True)
        calls = linalg_calls(monkeypatch)
        overlap(rho, sigma)
        purity(rho)
        fidelity_f(rho, sigma)
        c_squared(rho, sigma)
        cross, self_overlap = ["cholesky", "solve"], ["cholesky"]
        fidelity = cross + 2 * self_overlap
        assert calls == cross + self_overlap + fidelity + fidelity

    @pytest.mark.parametrize("exponent", range(6, 14))
    def test_tmsv_past_double_precision_only_raises_singular(self, exponent):
        # Near-singular pure states: values are not resolved on either path,
        # so none is pinned; a call may only return or raise `_singular`'s
        # error, with no warning.
        state, other = (tmsv(np.arcsinh(np.sqrt(10.0**k))) for k in (exponent, exponent + 1))
        calls = [
            lambda: overlap(state, state),
            lambda: overlap(state, other),
            lambda: purity(state),
            lambda: fidelity_f(state, other),
            lambda: c_squared(state, state),
            lambda: c_squared(state, other),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    call()
                except ValueError as exc:
                    assert "singular at double precision" in str(exc)


def _asymmetric(rng, cm: np.ndarray) -> np.ndarray:
    """``cm`` with every off-diagonal pair split by up to 1e-10 of its scale:
    asymmetric, but within the constructor's tolerance."""
    noise = 1e-10 * float(np.abs(cm).max()) * rng.uniform(-1.0, 1.0, cm.shape)
    return cm + np.triu(noise, 1)


def _subnormal(rng, n: int) -> np.ndarray:
    """A thermal CM with subnormal off-diagonal entries, unequal across the
    diagonal, whose halves round."""
    cm = np.diag(rng.uniform(1.0, 3.0, 2 * n))
    tiny = rng.integers(-7, 8, (2 * n, 2 * n)) * 5e-324
    return cm + tiny - np.diag(np.diag(tiny))


#: 1- and 2-mode partitions: the overlaps that read the states' rows.
_BIT_MODES = [(1, 0), (1, 1)]


def _bit_pairs(rng, modes):
    """Pairs on ``modes`` of every kind the rows-based midpoint must match the
    array midpoint on: plain, asymmetric within tolerance, entries near
    1e300, subnormal off-diagonals; each kind with zero and nonzero means."""
    n = sum(modes)
    builds = [
        lambda: random_cm(rng, n),
        lambda: _asymmetric(rng, random_cm(rng, n)),
        lambda: 1e300 * random_cm(rng, n),
        lambda: _asymmetric(rng, 1.7e300 * random_cm(rng, n)),
        lambda: _subnormal(rng, n),
    ]
    pairs = []
    for build in builds:
        for displaced in (False, True):
            for _ in range(10):
                means = (2.0 * rng.normal(size=2 * n) if displaced else None for _ in range(2))
                pairs.append(tuple(GaussianState(build(), *modes, mean) for mean in means))
    return pairs


class TestRowsMidpoint:
    """Every overlap of up to 4 rows builds sym((V1 + V2)/2) from the
    states' rows (`_mid_lower`); the array midpoint it replaced
    (`array_mid_factor`, `array_log_overlap`) is the reference, bit for
    bit.  Larger overlaps factor the array midpoint by LAPACK, checked on
    the same kinds of pairs against `reference_log_overlap`."""

    @pytest.mark.parametrize("modes", _BIT_MODES)
    def test_pivots_match_array_midpoint_bit_for_bit(self, rng, modes):
        for rho, sigma in _bit_pairs(rng, modes):
            for a, b in ((rho, sigma), (rho, rho), (sigma, rho)):
                lower, pivots = _ldl_4(_mid_lower(a._rows, b._rows), 0.0)
                ref_lower, ref_pivots = array_mid_factor(a.cm, b.cm)
                assert float_bits(pivots) == float_bits(ref_pivots)
                assert float_bits(lower) == float_bits(ref_lower)

    @pytest.mark.parametrize("modes", _BIT_MODES)
    def test_log_overlap_matches_array_midpoint_bit_for_bit(self, rng, modes):
        for rho, sigma in _bit_pairs(rng, modes):
            for a, b in ((rho, sigma), (rho, rho), (sigma, sigma)):
                got = _log_overlap(a, b)
                assert got.hex() == array_log_overlap(a, b).hex()
                assert overlap(a, b).log_value.hex() == got.hex()

    @pytest.mark.parametrize("modes", _BIT_MODES)
    def test_lower_triangle_matches_array_midpoint(self, rng, modes):
        # the triangle itself, beyond what the factor reads of it
        for rho, sigma in _bit_pairs(rng, modes)[::5]:
            m = 0.5 * rho.cm + 0.5 * sigma.cm
            full = (0.5 * m + 0.5 * m.T).tolist()
            expected = [row[: i + 1] for i, row in enumerate(full)]
            assert float_bits(_mid_lower(rho._rows, sigma._rows)) == float_bits(expected)

    @pytest.mark.parametrize("modes", [(2, 1), (2, 2)])
    def test_larger_states_match_the_reference_on_every_kind(self, rng, modes):
        worst = 0.0
        for rho, sigma in _bit_pairs(rng, modes):
            for a, b in ((rho, sigma), (rho, rho), (sigma, rho)):
                expected = reference_log_overlap(a, b)
                got = _log_overlap(a, b)
                assert overlap(a, b).log_value.hex() == got.hex()
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-14

    def test_kinds_are_what_they_claim(self, rng):
        pairs = _bit_pairs(rng, (1, 1))
        asymmetric, huge, tiny = pairs[20][0].cm, pairs[60][0].cm, pairs[80][0].cm
        assert not np.array_equal(asymmetric, asymmetric.T)
        assert not np.array_equal(huge, huge.T) and np.abs(huge).max() > 1e300
        off = tiny[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 5e-323) and np.any(off != 0.0)
        assert not np.array_equal(tiny, tiny.T)
