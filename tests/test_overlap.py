import numpy as np
import pytest
import scipy.linalg as la

from nfg import (
    GaussianState,
    GaussianUnitary,
    apply_gaussian_unitary,
    c_squared,
    fidelity_f,
    nfg_theta_objective,
    overlap,
    purity,
    tmsv,
)

from helpers import random_state, random_symplectic


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
            ua = apply_gaussian_unitary(a, u, "global")
            ub = apply_gaussian_unitary(b, u, "global")
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
