import collections
import itertools
import math
import re
import sys
import threading
import types
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg as la

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
    fidelity_f,
    is_symplectic,
    nfg_numeric,
    overlap,
    purity,
    ssts,
    standard_form,
    symplectic_form,
    tmsv,
    validate_cm,
    williamson,
)

from helpers import (
    _ldl_rows,
    apply_global,
    dilation_channel,
    eager_symmetric_rows,
    exact_standard_form,
    float_bits,
    haar_unitary,
    linalg_calls,
    loop_channel,
    loop_map_rows,
    loop_simon,
    loop_verdict,
    passive_stabilizer,
    random_channel,
    random_cm,
    random_state,
    random_symplectic,
    planted_degenerate_state,
    reference_channel_verdict,
    eigensolve_degenerate,
    eigensolve_symplectic_spectrum,
    reference_degenerate,
    reference_simon,
    reference_standard_form,
    reference_symmetric_part,
    reference_verdict,
    rotation,
    squeezed_product,
    standard_state,
    stream_shaped_cm,
    stream_shaped_state,
)


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_is_direct_sum(self):
        d = symplectic_form(2)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(d, la.block_diag(j, j))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_squares_to_minus_identity(self, n):
        d = symplectic_form(n)
        assert np.array_equal(d @ d, -np.eye(2 * n))
        assert np.array_equal(d, -d.T)
        assert np.linalg.det(d) == pytest.approx(1.0)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(0)

    def test_shared_and_read_only(self):
        d = symplectic_form(3)
        assert symplectic_form(3) is d
        with pytest.raises(ValueError):
            d[0, 0] = 1.0


class TestValidateCm:
    def test_vacuum(self):
        report = validate_cm(np.eye(2))
        assert report.physical and report.symmetric and report.positive_definite
        assert report.symplectic_eigenvalues == pytest.approx([1.0])

    def test_half_identity_unphysical(self):
        report = validate_cm(0.5 * np.eye(2))
        assert not report.physical
        assert report.symplectic_eigenvalues == pytest.approx([0.5])

    def test_pure_ssts_on_the_boundary(self):
        c = 2.0 * np.sqrt(2.0)
        g = standard_state(StandardFormParams(3.0, 3.0, c, -c)).cm
        report = validate_cm(g)
        assert report.physical
        # nu^2 = (dtilde +- sqrt(dtilde^2 - 4 det)) / 2 with dtilde = a^2+b^2+2cd
        dtilde = 9.0 + 9.0 + 2.0 * c * (-c)
        assert dtilde == pytest.approx(2.0)
        assert np.linalg.det(g) == pytest.approx(1.0)
        assert report.symplectic_eigenvalues == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("cm, nu", [(3.0 * np.eye(2), 3.0), (0.5 * np.eye(2), 0.5)])
    def test_one_mode_thermal_reads_exactly(self, cm, nu):
        assert validate_cm(cm).symplectic_eigenvalues.tolist() == [nu]

    def test_one_mode_matches_the_eigensolve(self, rng):
        # nu = sqrt|det Gamma_s| in scalar arithmetic rounds the 2 x 2
        # determinant once: its error is u (kappa + 1)/2 + u relative, u the
        # unit roundoff and kappa = (|g00 g11| + |g01 g10|)/|det|, and the
        # eigensolve's is of the same order, but it is up to ~10 ulps off
        # where the closed form is exact.  So: within that rounding bound of
        # the 50-digit value, and never more than 4 ulps further from it
        # than the eigensolve.
        u = 2.0**-53
        for i in range(600):
            g = random_cm(rng, 1, nu_max=1e3 if i % 2 else 3.0)
            g = g * 10.0 ** rng.uniform(-300.0, 300.0) if i % 3 else g
            nu = validate_cm(g).symplectic_eigenvalues
            assert nu.shape == (1,) and not nu.flags.writeable
            reference = float(eigensolve_symplectic_spectrum(g)[0])
            (p, q), (r, s) = nfg.states._symmetric_part(g)[1].tolist()
            with mpmath.workdps(50):
                det = mpmath.mpf(p) * s - mpmath.mpf(q) * r
                exact = float(mpmath.sqrt(abs(det)))
                kappa = float((abs(mpmath.mpf(p) * s) + abs(mpmath.mpf(q) * r)) / abs(det))
            ulp = math.ulp(exact)
            assert abs(nu[0] - exact) <= (u * ((kappa + 1.0) / 2.0 + 1.0) * exact) + ulp / 2
            assert abs(nu[0] - exact) <= abs(reference - exact) + 4.0 * ulp

    def test_negative_definite_rejected(self):
        # moduli of the symplectic spectrum alone would pass -3*I; the
        # explicit positive-definiteness check must catch it
        report = validate_cm(-3.0 * np.eye(2))
        assert not report.positive_definite and not report.physical

    def test_asymmetric_rejected(self):
        g = np.array([[2.0, 0.5], [-0.5, 2.0]])
        report = validate_cm(g)
        assert not report.symmetric and not report.physical

    def test_thermal_scaling(self):
        report = validate_cm(np.diag([7.0, 7.0, 3.0, 3.0]))
        assert report.physical
        assert report.symplectic_eigenvalues == pytest.approx([7.0, 3.0])

    @pytest.mark.parametrize("exponent", range(14))
    def test_sub_vacuum_mode_rejected_at_every_scale(self, rng, exponent):
        # A product of a large thermal-squeezed mode and a mode below vacuum
        # (nu < 1, computed exactly) is unphysical however large the first is.
        scale = 10.0**exponent
        for _ in range(5):
            r, o = rng.uniform(0.0, 1.0), rotation(rng.uniform(0.0, np.pi))
            big = scale * o @ np.diag(np.exp([-2.0 * r, 2.0 * r])) @ o.T
            small = rng.uniform(0.1, 0.999) * np.eye(2)
            for g in (la.block_diag(big, small), la.block_diag(small, big)):
                assert not validate_cm(g).physical

    @pytest.mark.parametrize("n_bar", [1e-3, 1.0, 1e4, 1e8, 1e10, 1e13])
    def test_families_accepted_up_to_large_n_bar(self, n_bar):
        for mu in (0.0, 0.5, 0.9, 1.0):
            assert validate_cm(ssts(SstsParams(n_bar, mu)).cm).physical
        assert validate_cm(tmsv(np.arcsinh(np.sqrt(n_bar))).cm).physical

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_cm(np.eye(3))
        with pytest.raises(ValueError):
            validate_cm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            validate_cm(np.ones((2, 4)))


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    @pytest.mark.parametrize("theta", np.linspace(0.0, 2.0 * np.pi, 9))
    def test_rotations(self, theta):
        assert is_symplectic(rotation(theta))

    def test_squeeze(self):
        assert is_symplectic(np.diag([np.exp(0.7), np.exp(-0.7)]))

    def test_scaling_is_not(self):
        assert not is_symplectic(2.0 * np.eye(2))

    def test_random_generated(self, rng):
        for n in (1, 2, 3):
            assert is_symplectic(random_symplectic(rng, n))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(np.eye(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_s_past_the_limit_is_refused_before_any_product(self, scale):
        # S Delta S^T and max|S|^2 would overflow; the limit is a channel's.
        for check in (is_symplectic, GaussianUnitary):
            with pytest.raises(ValueError, match=r"entries of S must be at most 1e\+150"):
                check(scale * np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_s_at_the_limit_is_judged(self):
        assert not is_symplectic(1e150 * np.eye(2))
        assert is_symplectic(np.diag([1e150, 1e-150]))

    @staticmethod
    def passive_squeeze_passive(rng, n: int, r: float) -> np.ndarray:
        """O diag(e^-r_i, e^r_i) O' with passive O, O' and the largest r_i = r,
        so max|S| <= e^r."""
        rs = np.append(r, rng.uniform(0.0, r, n - 1))
        squeeze = np.diag(np.exp(np.ravel(np.column_stack([-rs, rs]))))
        passive = [passive_stabilizer(np.eye(2 * n), haar_unitary(rng, n)) for _ in range(2)]
        return passive[0] @ squeeze @ passive[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_large_squeezers_accepted_and_scaled_copies_rejected(self, rng, n):
        for r in np.linspace(0.0, 16.0, 33):
            for _ in range(10):
                s = self.passive_squeeze_passive(rng, n, r)
                assert is_symplectic(s)
                GaussianUnitary(s)
                assert not is_symplectic(2.0 * s)
                if r <= 8.0:
                    assert not is_symplectic((1.0 + 1e-6) * s)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noiseless_channels_follow_the_unitary_verdict(self, rng, n):
        # One rule judges both maps: the noiseless channel of every squeezer
        # accepted above is accepted, and that of 2 S is rejected.
        zero = np.zeros((2 * n, 2 * n))
        for r in np.linspace(0.0, 16.0, 33):
            for _ in range(10):
                s = self.passive_squeeze_passive(rng, n, r)
                if is_symplectic(s):
                    GaussianChannel(s, zero)
                with pytest.raises(ValueError, match="invalid channel"):
                    GaussianChannel(2.0 * s, zero)

    def test_one_mode_check_is_the_determinant(self, rng):
        # For one mode S Delta S^T = det S Delta, so the scalar |det S - 1|
        # decides as the plain max|S Delta S^T - Delta| on a det S that
        # misses 1 by half or twice the allowance, floor and rounding term.
        delta, eps32 = symplectic_form(1), 32.0 * np.finfo(float).eps
        for r in np.linspace(0.0, 8.0, 17):
            for step in (-2.0, -0.5, 0.5, 2.0):
                s = self.passive_squeeze_passive(rng, 1, r)
                allowance = max(1e-9, eps32 * np.abs(s).max() ** 2)
                s = np.sqrt(1.0 + step * allowance) * s
                plain = np.abs(s @ delta @ s.T - delta).max() <= allowance
                assert is_symplectic(s) == plain == (abs(step) < 1.0)

    @pytest.mark.parametrize("tol, max_entry", [(1e-9, 3e2)])
    def test_small_scale_check_is_the_absolute_tolerance(self, rng, tol, max_entry):
        # Up to this scale the allowance is the 1e-9 floor itself: perturbations
        # straddling it get the verdict of the plain max|S Delta S^T - Delta|.
        for n in (1, 2, 3):
            delta = symplectic_form(n)
            for r in np.linspace(0.0, np.log(max_entry), 8):
                for step in (0.3, 0.45, 0.55, 0.7):
                    s = (1.0 + step * tol) * self.passive_squeeze_passive(rng, n, r)
                    plain = np.abs(s @ delta @ s.T - delta).max() <= tol
                    assert is_symplectic(s) == plain


class TestWilliamson:
    def test_single_mode_thermal(self):
        dec = williamson(5.0 * np.eye(2))
        assert dec.nus == pytest.approx([5.0])
        assert dec.s == pytest.approx(np.eye(2))
        assert not dec.degeneracy_flag

    def test_already_diagonal_two_modes(self):
        dec = williamson(np.diag([3.0, 3.0, 2.0, 2.0]))
        assert dec.nus == pytest.approx([3.0, 2.0])
        assert not dec.degeneracy_flag

    def test_descending_order(self):
        dec = williamson(np.diag([2.0, 2.0, 3.0, 3.0]))
        assert dec.nus == pytest.approx([3.0, 2.0])

    def test_tmsv_is_pure(self):
        dec = williamson(tmsv(0.5).cm)
        assert dec.nus == pytest.approx([1.0, 1.0], abs=1e-10)
        assert dec.degeneracy_flag

    @pytest.mark.parametrize(
        "spectrum",
        [1, 2, 3]
        + [
            pytest.param(nus, id="degenerate-" + "-".join(map(str, nus)))
            for nus in [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.5)]
        ],
    )
    def test_random_reconstruction(self, rng, spectrum):
        # An int is a mode count with random symplectic eigenvalues; a tuple
        # fixes a degenerate spectrum under random symplectic conjugations.
        degenerate = not isinstance(spectrum, int)
        n = len(spectrum) if degenerate else spectrum
        for _ in range(20):
            g = random_cm(rng, n, nus=spectrum if degenerate else None)
            dec = williamson(g)
            target = np.diag(np.repeat(dec.nus, 2))
            assert np.abs(dec.s @ g @ dec.s.T - target).max() < 1e-8
            assert is_symplectic(dec.s)
            assert np.all(np.diff(dec.nus) <= 1e-12)
            assert np.all(dec.nus >= 1.0 - 1e-9)
            if degenerate:
                assert dec.degeneracy_flag

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            williamson(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relative_residuals(self, rng, n):
        delta = symplectic_form(n)
        for _ in range(50):
            g = random_cm(rng, n)
            dec = williamson(g)
            target = np.diag(np.repeat(dec.nus, 2))
            assert np.abs(dec.s @ g @ dec.s.T - target).max() <= 2e-14 * dec.nus[0]
            assert np.abs(dec.s @ delta @ dec.s.T - delta).max() <= 2e-14

    def test_one_hermitian_eigensolve_shared_with_the_flag(self, rng, monkeypatch):
        # williamson solves the matrix the degeneracy flag solves, i L^T Delta L,
        # once, with eigenvectors; nothing else is decomposed.
        seen, eigh = [], np.linalg.eigh

        def spy(m):
            seen.append(m)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        g = random_cm(rng, 3)
        williamson(g)
        hermitian = nfg.states._symplectic_hermitian(np.linalg.cholesky(g))
        assert len(seen) == 1 and np.array_equal(seen[0], hermitian)


class TestStandardForm:
    def test_already_standard_returns_identity_locals(self):
        state = standard_state(StandardFormParams(2.0, 2.0, 1.0, -1.0))
        params, s_a, s_b = standard_form(state)
        assert (params.a, params.b, params.c, params.d) == (2.0, 2.0, 1.0, -1.0)
        assert np.array_equal(s_a, np.eye(2))
        assert np.array_equal(s_b, np.eye(2))

    def test_recovers_rotated_family_state(self, rng):
        base = standard_state(StandardFormParams(3.0, 3.0, np.sqrt(2.0), -np.sqrt(2.0)))
        for _ in range(20):
            phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
            u = GaussianUnitary(la.block_diag(rotation(phi), rotation(psi)))
            params, _, _ = standard_form(apply_global(base, u))
            assert params.a == pytest.approx(3.0, abs=1e-9)
            assert params.b == pytest.approx(3.0, abs=1e-9)
            assert params.c == pytest.approx(np.sqrt(2.0), abs=1e-9)
            assert params.d == pytest.approx(-np.sqrt(2.0), abs=1e-9)

    def test_tmsv_params(self):
        r = 0.8
        params, _, _ = standard_form(tmsv(r))
        assert params.a == pytest.approx(np.cosh(2 * r), rel=1e-12)
        assert params.b == pytest.approx(np.cosh(2 * r), rel=1e-12)
        assert params.c == pytest.approx(np.sinh(2 * r), rel=1e-12)
        assert params.d == pytest.approx(-np.sinh(2 * r), rel=1e-12)

    def test_random_states_land_in_standard_form(self, rng):
        for _ in range(50):
            state = random_state(rng)
            params, s_a, s_b = standard_form(state)
            scale = max(1.0, params.a, params.b)
            assert params.a >= 1.0 - 1e-9 and params.b >= 1.0 - 1e-9
            assert params.a * params.b - 1.0 >= params.c**2 - 1e-9 * scale
            assert params.a * params.b - 1.0 >= params.d**2 - 1e-9 * scale
            assert params.c >= abs(params.d) - 1e-12
            assert is_symplectic(s_a) and is_symplectic(s_b)
            loc = la.block_diag(s_a, s_b)
            target = standard_state(params).cm
            assert np.abs(loc @ state.cm @ loc.T - target).max() < 1e-8 * scale

    def test_idempotent(self, rng):
        for _ in range(20):
            params, _, _ = standard_form(random_state(rng))
            again, s_a, s_b = standard_form(standard_state(params))
            assert again.a == pytest.approx(params.a, rel=1e-10)
            assert again.b == pytest.approx(params.b, rel=1e-10)
            assert again.c == pytest.approx(params.c, rel=1e-10, abs=1e-12)
            assert again.d == pytest.approx(params.d, rel=1e-10, abs=1e-12)

    def test_wrong_partition_rejected(self):
        state = GaussianState(np.eye(6), 2, 1)
        with pytest.raises(ValueError):
            standard_form(state)

    @staticmethod
    def assert_matches_reference(state: GaussianState):
        """(a, b, c, d) within 1e-12 of the eigensolve-and-SVD path in
        `helpers`, a and b relative to themselves and c, d relative to c.
        Both paths resolve a block only to ~kappa eps, kappa = a00 a11 / det
        of the block, so where they differ by more, the scalar path must lie
        within 4 kappa eps of the 50-digit reference (kappa of A for a, of B
        for b, the larger for c and d); over 16,000 stream-shaped draws it
        stayed within 2.6 kappa eps, the eigensolve path within 8.9.  Both
        sets of frames bring Gamma to the standard matrix within 1e-12 of
        max(a, b)."""
        p, s_a, s_b = standard_form(state)
        q, t_a, t_b = reference_standard_form(state)
        new, old = np.array([p.a, p.b, p.c, p.d]), np.array([q.a, q.b, q.c, q.d])
        scale = np.array([q.a, q.b, q.c, q.c])
        far = np.abs(new - old) > 1e-12 * scale
        if far.any():
            g = state.cm
            kappa_a, kappa_b = (
                g[k, k] * g[k + 1, k + 1] / np.linalg.det(g[k : k + 2, k : k + 2]) for k in (0, 2)
            )
            kappa = np.array([kappa_a, kappa_b, max(kappa_a, kappa_b), max(kappa_a, kappa_b)])
            error = np.abs(new - exact_standard_form(state)) / scale
            assert np.all(error[far] <= 4.0 * kappa[far] * np.finfo(float).eps)
        target = standard_state(p).cm
        for frames in ((s_a, s_b), (t_a, t_b)):
            local = la.block_diag(*frames)
            assert np.abs(local @ state.cm @ local.T - target).max() <= 1e-12 * max(p.a, p.b)

    def test_matches_eigensolve_path_on_stream_shaped_states(self, rng):
        for _ in range(2000):
            self.assert_matches_reference(stream_shaped_state(rng))

    @pytest.mark.parametrize("n_bar", 10.0 ** np.arange(-3.0, 14.0))
    def test_matches_eigensolve_path_on_locally_squeezed_ssts(self, rng, n_bar):
        for mu in (0.1, 0.5, 0.9, 0.99, 0.999, 1.0):
            family = ssts(SstsParams(n_bar, mu))
            for _ in range(3):
                local = [
                    rotation(before) @ np.diag(np.exp([-r, r])) @ rotation(after)
                    for r, before, after in rng.uniform(0.0, [1.0, 2 * np.pi, 2 * np.pi], (2, 3))
                ]
                u = GaussianUnitary(la.block_diag(*local))
                self.assert_matches_reference(apply_global(family, u))

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_squeezed_block_gives_params_or_the_value_error(self, side):
        # 3 I with a mode squeezed by r: the stored block's determinant is off
        # by ~eps e^{4r}, so from r ~ 5 no path resolves the squeezed side's
        # parameter; it must still come back as parameters or a ValueError,
        # with no warning on the way.
        for r in np.arange(0.5, 16.25, 0.5):
            state = squeezed_product(r, side)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    p, _, _ = standard_form(state)
                except ValueError:
                    assert r > 4.0
                    continue
            if r <= 4.0:
                squeezed, thermal = (p.a, p.b) if side == "A" else (p.b, p.a)
                assert squeezed == pytest.approx(1.0, abs=1e-9)
                assert thermal == 3.0 and p.c == p.d == 0.0

    def test_power_of_four_scalings_keep_their_bits(self):
        # 4^k Gamma has 4^k times Gamma's parameters and the same frames, bit
        # for bit, up to k = 510, where det A ~ 1e615 is far past the float
        # maximum: the rows are scaled by a power of two before they are
        # factored.
        cm = np.array(
            [
                [3.2, 2.05, -0.36, -1.36],
                [2.05, 2.57, -0.95, -0.79],
                [-0.36, -0.95, 2.32, 0.79],
                [-1.36, -0.79, 0.79, 3.38],
            ]
        )
        p, s_a, s_b = standard_form(GaussianState(cm, 1, 1))
        for k in range(511):
            t = 4.0**k
            q, t_a, t_b = standard_form(GaussianState(t * cm, 1, 1))
            assert (q.a, q.b, q.c, q.d) == (t * p.a, t * p.b, t * p.c, t * p.d), k
            assert np.array_equal(t_a, s_a) and np.array_equal(t_b, s_b), k

    def test_no_numpy_linear_algebra_but_the_params_verdict(self, rng, monkeypatch):
        state = stream_shaped_state(rng)
        calls = linalg_calls(monkeypatch)
        standard_form(state)
        assert calls == []


class TestParamsValidation:
    def test_rejects_sub_vacuum(self):
        with pytest.raises(ValueError):
            StandardFormParams(0.5, 2.0, 0.0, 0.0)

    def test_rejects_overcorrelated(self):
        with pytest.raises(ValueError):
            StandardFormParams(2.0, 2.0, 2.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="must be finite"):
            StandardFormParams(np.nan, 1.0, 0.0, 0.0)

    def test_rejects_wrong_orientation(self):
        with pytest.raises(ValueError):
            StandardFormParams(2.0, 2.0, 0.5, -1.0)

    @pytest.mark.parametrize(
        "a, b, c, d",
        [
            (2.0, 2.0, np.sqrt(3.0), 0.0),
            (3.0, 3.0, 2.8, 0.0),
            (3.0, 2.0, 2.2, 1.0),
            (1.5, 4.0, 2.2, -2.2),
            (2.0, 2.0, 1.7, -1.0),
        ],
    )
    def test_rejects_what_simon_rejects(self, a, b, c, d):
        # a, b >= 1 and ab - 1 >= max(c^2, d^2) hold here, but that is not
        # Simon's criterion: each matrix has a symplectic eigenvalue below 1.
        assert a * b - 1.0 >= max(c * c, d * d) and c >= abs(d)
        g = np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]])
        assert validate_cm(g).symplectic_eigenvalues[-1] < 0.99
        with pytest.raises(ValueError, match="not physical"):
            StandardFormParams(a, b, c, d)

    @pytest.mark.parametrize("n_bar", [1e-3, 1.0, 1e4, 1e8, 1e10, 1e13])
    def test_standard_forms_of_accepted_states_accepted(self, rng, n_bar):
        # Rotated and locally squeezed SSTS are physical, so their standard
        # forms must pass the same verdict at every scale.
        def local():
            r = rng.uniform(0.0, 2.0)
            phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
            return rotation(phi) @ np.diag([np.exp(-r), np.exp(r)]) @ rotation(psi)

        for mu in (0.0, 0.5, 0.9, 1.0):
            base = ssts(SstsParams(n_bar, mu))
            for _ in range(10):
                u = GaussianUnitary(la.block_diag(local(), local()))
                params, _, _ = standard_form(apply_global(base, u))
                assert validate_cm(standard_state(params).cm).physical


class TestGaussianState:
    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            GaussianState(0.5 * np.eye(2), 1, 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState(np.eye(4), 1, 0)
        with pytest.raises(ValueError):
            GaussianState(np.eye(2), 1, 0, mean=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "n_a, n_b",
        [(1.5, 0.5), (1.0, 1.0), (1, 1.0), (True, 1), (1, False), ("1", 1), (None, 1)],
    )
    def test_mode_counts_must_be_integers(self, n_a, n_b):
        # 1.5 + 0.5 = 2 modes would pass the shape check and fail later
        with pytest.raises(ValueError, match="must be integers"):
            GaussianState(np.eye(4), n_a, n_b, np.zeros(4))

    def test_negative_mode_count_rejected(self):
        # -1 + 2 modes would pass the shape check of a 2 x 2 matrix
        with pytest.raises(ValueError, match="need n_a, n_b >= 0 with at least one mode"):
            GaussianState(np.eye(2), -1, 2)

    def test_numpy_integer_mode_counts_accepted(self):
        state = GaussianState(np.eye(4), np.int64(1), np.int32(1))
        assert (state.n_a, state.n_b) == (1, 1)

    def test_arrays_are_frozen(self):
        state = GaussianState(np.eye(2), 1, 0)
        with pytest.raises(ValueError):
            state.cm[0, 0] = 2.0
        with pytest.raises(ValueError):
            state.mean[0] = 1.0

    def test_correlation_spectrum_is_cached_read_only(self, rng):
        state = random_state(rng, 2, 2)
        mu = state._correlation_spectrum
        assert state._correlation_spectrum is mu
        assert np.asarray(mu).shape == (4,) and np.all(np.asarray(mu) <= 1.0)
        with pytest.raises(TypeError):  # a tuple
            mu[0] = 0.5

    def test_correlation_spectrum_under_concurrent_first_use(self, rng):
        # Many threads ask fresh states for the spectrum at once, half of
        # them through nfg_numeric, whose degeneracy flag reads the same
        # cached L_A; each must read the value a serial computation gives,
        # bit for bit.
        cms = [random_cm(rng, 3) for _ in range(40)]
        expected = [GaussianState(g, 2, 1)._correlation_spectrum for g in cms]
        states = [GaussianState(g, 2, 1) for g in cms]
        mismatches, start = [], threading.Barrier(8)

        def work(i):
            start.wait()
            for state, mu in zip(states, expected):
                if i % 2:
                    nfg_numeric(state)
                if not np.array_equal(state._correlation_spectrum, mu):
                    mismatches.append(mu)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


#: Scales whose sum of two overflows: (x + y)/2 must be taken as x/2 + y/2.
HUGE = [9e307, 1.5e308, 1.79e308]

#: A (1+1)-mode state at 1e200 scale (3 I on each side, C = 2Z): physical, but
#: a map with max|K| >= 1e108 overflows it.
HUGE_PAIR = GaussianState(
    1e200 * np.array([[3, 0, 2, 0], [0, 3, 0, -2], [2, 0, 3, 0], [0, -2, 0, 3]]), 1, 1
)

#: The CI's large-gain channel and its noiseless squeezer's K.
HUGE_GAIN = GaussianChannel(1e100 * np.eye(2), 2e200 * np.eye(2))
SQUEEZE_1E150 = np.diag([1e150, 1e-150])


class TestHugeScale:
    @pytest.mark.parametrize("s", HUGE)
    def test_thermal_state_builds_and_validates(self, s):
        state = GaussianState(s * np.eye(2), 1, 0)
        report = validate_cm(state.cm)
        assert report.symmetric and report.positive_definite and report.physical
        assert report.symplectic_eigenvalues[0] == pytest.approx(s, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_report_at_the_float_maximum(self):
        top = np.finfo(float).max
        for g in (top * np.eye(2), la.block_diag(np.eye(2), top * np.eye(2))):
            report = validate_cm(g)
            assert report.physical
            assert report.symplectic_eigenvalues[0] == pytest.approx(top, rel=1e-15)

    def test_asymmetric_rejected_without_overflow(self):
        g = np.array([[1e308, 1.7e308], [-1.7e308, 1e308]])
        assert not validate_cm(g).symmetric
        with pytest.raises(ValueError, match="not physical"):
            GaussianState(g, 1, 0)

    @pytest.mark.parametrize("s", HUGE)
    def test_channel_noise_symmetrized_without_overflow(self, s):
        ch = GaussianChannel(np.eye(2), s * np.eye(2))
        assert np.array_equal(ch.m_noise, s * np.eye(2))

    @pytest.mark.parametrize(
        "apply, match",
        [
            # Side B of the two-mode state at 1e200 under a large gain and a
            # noiseless squeezer, and side A under that squeezer: K g K^T
            # overflows, and inf * 0 gives NaN.
            (lambda: apply_channel(HUGE_PAIR, HUGE_GAIN), "non-finite"),
            (lambda: apply_channel(HUGE_PAIR, GaussianChannel(SQUEEZE_1E150, np.zeros((2, 2)))),
             "non-finite"),
            (lambda: apply_gaussian_unitary(HUGE_PAIR, GaussianUnitary(SQUEEZE_1E150), "A"),
             "non-finite"),
            # The noise sum and the mean overflow on their own.
            (lambda: apply_channel(GaussianState(1e308 * np.eye(4), 1, 1),
                                   GaussianChannel(np.eye(2), 1e308 * np.eye(2))),
             "non-finite"),
            (lambda: apply_gaussian_unitary(GaussianState(np.eye(4), 1, 1, [1e308, 0.0, 0.0, 0.0]),
                                            GaussianUnitary(np.diag([2.0, 0.5])), "A"),
             "mean must be a finite vector"),
            # The 2-row side of a (2+1) and a (1+2) state at 1e200.
            (lambda: apply_channel(GaussianState(1e200 * np.eye(6), 2, 1), HUGE_GAIN),
             "non-finite"),
            (lambda: apply_gaussian_unitary(GaussianState(1e200 * np.eye(6), 1, 2),
                                            GaussianUnitary(SQUEEZE_1E150), "A"),
             "non-finite"),
        ],
        ids=["gain-on-B", "squeezer-on-B", "squeezer-on-A", "noise-sum", "mean",
             "gain-on-B-of-2+1", "squeezer-on-A-of-1+2"],
    )  # fmt: skip
    def test_overflowing_map_rejected_without_warnings(self, apply, match):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=match):
                apply()
        assert [str(w.message) for w in caught] == []

    def test_midpoint_is_the_plain_one_on_normal_numbers(self, rng):
        for _ in range(20):
            x = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-300, 300, size=(6, 6))
            y = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-300, 300, size=(6, 6))
            assert np.array_equal(nfg.states._mid(x, y), 0.5 * (x + y))
        top = np.finfo(float).max
        assert nfg.states._mid(top, top) == top


def _verdict_corpus(rng):
    """(cm, n_a, n_b) on both sides of the physical boundary and at every scale."""
    tol = 1e-9
    for n_a, n_b in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        n = n_a + n_b
        for _ in range(4):
            g = random_cm(rng, n)
            yield g, n_a, n_b
            for factor in (0.5, 0.99, 1.0 - 1e-6, 1.0 + 1e-6):
                yield factor * random_cm(rng, n, nus=np.ones(n)), n_a, n_b
            scale = np.abs(g).max()
            for slack in (0.99, 1.01):
                skew = g.copy()
                skew[0, 1] += slack * tol * scale
                yield skew, n_a, n_b
    for exponent in range(14):
        r, o = rng.uniform(0.0, 1.0), rotation(rng.uniform(0.0, np.pi))
        big = 10.0**exponent * o @ np.diag(np.exp([-2.0 * r, 2.0 * r])) @ o.T
        small = rng.uniform(0.1, 0.999) * np.eye(2)
        yield la.block_diag(big, small), 1, 1
        yield la.block_diag(small, big), 1, 1
    for n_bar in [1e-3, 1.0, 1e4, 1e8, 1e10, 1e13]:
        for mu in (0.0, 0.5, 0.9, 1.0):
            yield ssts(SstsParams(n_bar, mu)).cm, 1, 1
        yield tmsv(np.arcsinh(np.sqrt(n_bar))).cm, 1, 1
    for d0 in (0.0, -1.0):
        g = 2.0 * np.eye(4)
        g[0, 0] = d0
        yield g, 1, 1
    for a in (1e2, 2e4, 3e4, 1e6):
        # singular, nu_min = 0: rejected up to 2e4, within tol from 3e4 on
        z = np.diag([1.0, -1.0])
        yield a * np.block([[np.eye(2), z], [z, np.eye(2)]]), 1, 1


class TestConstructionVerdict:
    def test_construction_succeeds_exactly_when_physical(self, rng):
        verdicts = []
        for g, n_a, n_b in _verdict_corpus(rng):
            physical = validate_cm(g).physical
            verdicts.append(physical)
            try:
                state = GaussianState(g, n_a, n_b)
            except ValueError:
                assert not physical
            else:
                assert physical
                assert np.array_equal(state.cm, g)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize(
        "cm, message",
        [
            (
                0.5 * np.eye(2),
                "covariance matrix is not physical (symmetric=True, "
                "positive_definite=True, min symplectic eigenvalue=0.5)",
            ),
            (
                [[2.0, 0.5], [-0.5, 2.0]],
                "covariance matrix is not physical (symmetric=False, "
                "positive_definite=True, min symplectic eigenvalue=2)",
            ),
            (
                -3.0 * np.eye(2),
                "covariance matrix is not physical (symmetric=True, "
                "positive_definite=False, min symplectic eigenvalue=3)",
            ),
        ],
        ids=["sub-vacuum", "asymmetric", "negative-definite"],
    )
    def test_rejection_message_is_the_full_report(self, cm, message):
        with pytest.raises(ValueError) as info:
            GaussianState(cm, 1, 0)
        assert str(info.value) == message

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (1, 1), (2, 1)])
    def test_rejection_decides_once(self, monkeypatch, n_a, n_b):
        # The report that explains a rejection reuses the verdict in hand.
        calls = []
        verdict = nfg.states._verdict

        def spy(g, rows):
            calls.append(g.shape)
            return verdict(g, rows)

        monkeypatch.setattr(nfg.states, "_verdict", spy)
        dim = 2 * (n_a + n_b)
        with pytest.raises(ValueError, match="not physical"):
            GaussianState(0.5 * np.eye(dim), n_a, n_b)
        assert calls == [(dim, dim)]

    def test_construction_runs_no_report_eigensolve(self, rng, monkeypatch):
        # The symplectic spectrum (a non-symmetric eigvals) serves only the
        # report, so building a physical state, on its own or as the output
        # of a unitary or a channel, never asks for it.
        cm, ch = random_cm(rng, 2), random_channel(rng)
        quarter_turn = GaussianUnitary(rotation(np.pi / 2))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        state = GaussianState(cm, 1, 1)
        apply_gaussian_unitary(state, quarter_turn, "A")
        apply_channel(state, ch)
        with pytest.raises(AssertionError):
            validate_cm(cm)


#: Half-width of the band around a threshold in which the scalar Cholesky
#: test and the reference eigensolve may part on rounding, per unit of the
#: matrix scale (1 for the equilibrated Simon matrix).
BAND = 1e-12


def _near_boundary_cms(rng, count):
    """(1+1) covariance matrices whose equilibrated Simon matrix has its
    smallest eigenvalue within 1e-6, 1e-9 or 1e-11 of -DEFAULT_TOL: a state
    with nu_min = 1, whose equilibrated matrix E has lambda_min ~ 0, minus
    x diag(Gamma), which equilibrates to (E - x I)/(1 - x)."""
    for i in range(count):
        spread = (1e-6, 1e-9, 1e-11)[i % 3]
        target = -1e-9 + rng.uniform(-spread, spread)
        g = stream_shaped_cm(rng, nus=[1.0, rng.uniform(1.0, 3.0) if i % 2 else 1.0])
        yield g - target / (target - 1.0) * np.diag(np.diag(g))


def _exact_det(a) -> Fraction:
    (p, q), (r, s) = [[Fraction(float(x)) for x in row] for row in a]
    return p * s - q * r


def _asymmetric_draws(rng, n: int):
    """2n x 2n matrices around the symmetry test and the scales `_mid`
    guards: a random CM with one entry moved so that the asymmetry lies
    just inside or outside `DEFAULT_TOL` of its scale, at unit scale,
    near 1e300 and at the float maximum, and with subnormal entries."""
    for _ in range(40):
        g = random_cm(rng, n)
        i, j = sorted(rng.choice(2 * n, 2, replace=False))
        for scale in (1.0, 1e300 / np.abs(g).max(), 1.5e308 / np.abs(g).max()):
            h = g * scale
            for factor in (0.5, 1.0 - 1e-6, 1.0 - 4e-16, 1.0, 1.0 + 4e-16, 1.0 + 1e-6, 2.0):
                moved = h.copy()
                moved[i, j] += factor * nfg.states.DEFAULT_TOL * max(1.0, np.abs(h).max())
                yield moved
        sub = g.copy()
        sub[i, j], sub[j, i] = 5e-324, 3e-320  # subnormal, and asymmetric
        yield sub
        yield g * 1e-310  # every entry subnormal


def _spectrum_draws(rng, n: int):
    """Descending n-value spectra: random, with planted equal pairs, pairs a
    hair inside or outside `_DEGENERACY_TOL`, values below 1 (the max(nu, 1)
    branch) and NaNs."""
    for _ in range(200):
        nus = np.sort(rng.uniform(0.2, 4.0, n))[::-1]
        k = rng.integers(n - 1)
        yield nus
        for gap in (0.0, 1.0 - 1e-6, 1.0 + 1e-6):
            planted = nus.copy()
            planted[k + 1] = planted[k] - gap * 1e-8 * max(planted[k], 1.0)
            yield planted
        low = nus.copy()
        # gaps within 1e-8 of 1 but not of 0.5: only max(nu, 1) matches them
        low[k:] = 0.5 - 7e-9 * np.arange(n - k)
        yield low
        for count in (1, 2):
            nan = nus.copy()
            nan[rng.choice(n, count, replace=False)] = np.nan
            yield nan


class TestHelperRewritesKeepTheirBits:
    """`_symmetric_part` halves g once and `_degenerate` runs in scalar
    arithmetic; both must give what their NumPy expressions (kept in
    `helpers`) give, bit for bit."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_symmetric_part(self, rng, n):
        outcomes = set()
        for g in _asymmetric_draws(rng, n):
            symmetric, gs = nfg.states._symmetric_part(g)
            ref_symmetric, ref_gs = reference_symmetric_part(g)
            assert symmetric == ref_symmetric
            assert gs.tobytes() == ref_gs.tobytes()
            outcomes.add(symmetric)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [3, 4])
    def test_degeneracy_rule(self, rng, n):
        outcomes = set()
        for nus in _spectrum_draws(rng, n):
            flag = nfg.states._degenerate(nus)
            assert flag is reference_degenerate(nus)
            outcomes.add(flag)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "nus", [[np.nan, np.nan], [3.0, np.nan, 1.0], [np.nan, 2.0, 2.0 + 1e-3], [2.0]]
    )
    def test_nan_and_single_values_read_not_degenerate(self, nus):
        assert not nfg.states._degenerate(np.array(nus))
        assert not reference_degenerate(np.array(nus))

    def test_williamson_flag_on_test_states(self, rng):
        cms = [tmsv(0.5).cm, np.diag([3.0, 3.0, 2.0, 2.0]), 3.0 * np.eye(4), 5.0 * np.eye(2)]
        for nus in [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.5)]:
            cms += [random_cm(rng, len(nus), nus=nus) for _ in range(10)]
        cms += [random_cm(rng, n) for n in (1, 2, 3, 4) for _ in range(10)]
        cms += [planted_degenerate_state(rng, 2, 2).cm[:4, :4] for _ in range(10)]
        flags = set()
        for g in cms:
            dec = williamson(g)
            assert dec.degeneracy_flag is reference_degenerate(dec.nus)
            flags.add(dec.degeneracy_flag)
        assert flags == {True, False}


def _pfaffian(l: np.ndarray) -> tuple[float, float, float]:
    """``(pf, det, scale)`` for a 4 x 4 lower factor L taken to max|L| ~ 1
    by a power of two: Pf(L^T Delta L) = K01 K23 - K02 K13 + K03 K12 in
    NumPy, det L and the size max|L|^4 of the terms either is made of."""
    l = l * 2.0 ** -np.ceil(np.log2(np.abs(l).max()))
    k = l.T @ symplectic_form(2) @ l
    pf = k[0, 1] * k[2, 3] - k[0, 2] * k[1, 3] + k[0, 3] * k[1, 2]
    return float(pf), float(np.prod(np.diag(l))), float(np.abs(l).max()) ** 4


def _squeezed_cm(rng, nus, r_max: float) -> np.ndarray:
    """A two-mode CM with symplectic spectrum ``nus``: local squeezers up to
    ``r_max`` on each mode, then a `random_symplectic`."""
    r = rng.uniform(0.0, r_max, 2)
    squeeze = np.diag(np.exp([r[0], -r[0], r[1], -r[1]]))
    s = random_symplectic(rng, 2) @ squeeze
    g = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return 0.5 * (g + g.T)


def _two_mode_a_blocks(rng):
    """``(a, expected)``: 4 x 4 A blocks for the closed-form flag, with the
    flag their exact spectrum gives, or None where it is not fixed: random
    and planted (nu, nu) spectra, thermal or squeezed, then scaled so that
    max|A| is spread up to ~1e300."""
    for i in range(150):
        nus = np.sort(rng.uniform(1.0, 5.0, 2))[::-1]
        planted = i % 3 == 0
        if planted:
            nus = np.full(2, nus[0])
        g = random_cm(rng, 2, nus=nus) if i % 2 else _squeezed_cm(rng, nus, 4.0)
        peak = 10.0 ** rng.uniform(0.0, 300.0)
        yield g, (True if planted else None)
        yield g * (peak / np.abs(g).max()), (True if planted else None)


class TestClosedFormDegeneracyFlag:
    """Two A modes decide `nfg_numeric`'s flag in closed form on L_A
    (`_degenerate_4`), where the library solved i L_A^T Delta L_A
    (`eigensolve_degenerate`, kept in `helpers`): the two must agree."""

    @pytest.mark.parametrize("n_b", [1, 2])
    def test_states_match_the_eigensolve(self, rng, n_b):
        outcomes = set()
        for i in range(60):
            planted = i % 3 == 0
            state = (planted_degenerate_state if planted else random_state)(rng, 2, n_b)
            flag = nfg.states._spectrum_degenerate(state)
            chol = np.array(state._chol_a)  # rows, for two A modes
            assert flag is eigensolve_degenerate(chol)
            assert flag is nfg_numeric(state).lower_bound_only
            assert flag or not planted
            outcomes.add(flag)
            pf, det, size = _pfaffian(chol)
            assert pf > 0.0 and abs(pf - det) <= 1e-13 * size
        assert outcomes == {True, False}

    @pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_gap_at_the_tolerance(self, rng, factor):
        # nu_2 = nu_1 - factor * tol * nu_1: inside the rule just below 1,
        # outside just above, the eigensolve and the closed form alike
        for _ in range(200):
            nu = 10.0 ** rng.uniform(0.0, 3.0)
            gap = factor * nfg.states._DEGENERACY_TOL * nu
            chol = np.linalg.cholesky(random_cm(rng, 2, nus=[nu, nu - gap]))
            flag = nfg.states._degenerate_4(chol.tolist())
            assert flag is eigensolve_degenerate(chol) is (factor < 1.0)

    def test_thermal_and_squeezed_blocks_up_to_1e300(self, rng):
        outcomes = set()
        for a, expected in _two_mode_a_blocks(rng):
            chol = np.linalg.cholesky(a)
            flag = nfg.states._degenerate_4(chol.tolist())
            assert flag is eigensolve_degenerate(chol)
            assert expected is None or flag is expected
            outcomes.add(flag)
            pf, det, size = _pfaffian(chol)
            assert pf > 0.0 and abs(pf - det) <= 1e-13 * size
        assert outcomes == {True, False}

    def test_an_overflowed_product_never_reads_degenerate(self, rng):
        # (nu, nu) blocks are degenerate at every scale in exact arithmetic.
        # At max|A| = 1e306 the entries of K are finite and the flag reads
        # True.  With L's last row scaled past that, the products with l33
        # overflow to inf, and the gap and nu_1 with them; with all of L
        # scaled, differences of infs give NaN.  Neither may read degenerate.
        for _ in range(20):
            a = random_cm(rng, 2, nus=[2.0, 2.0])
            chol = np.linalg.cholesky(a * (1e306 / np.abs(a).max()))
            assert nfg.states._degenerate_4(chol.tolist()) is True
            assert eigensolve_degenerate(chol)
            for k in (20, 100, 600):
                with np.errstate(over="ignore"):
                    row, whole = chol.copy(), chol * 2.0**k
                    row[3] *= 2.0**k
                assert nfg.states._degenerate_4(row.tolist()) is False
                assert nfg.states._degenerate_4(whole.tolist()) is False


def _unit_lower(rng, n: int, complex_entries: bool) -> np.ndarray:
    """A unit lower-triangular n x n matrix of small integers (Gaussian
    integers if ``complex_entries``), so that L D L^H with D of powers of two
    and every step of its LDL^H are exact in floating point."""
    low = np.tril(rng.integers(-2, 3, size=(n, n)), -1) + np.eye(n)
    if complex_entries:
        low = low + 1j * np.tril(rng.integers(-2, 3, size=(n, n)), -1)
    return low


def _ldl_draws(rng, n: int):
    """(h, shift) for `_ldl_4` at n rows, h as nested lists: real and complex
    positive-definite draws, the verdict's mix of float and complex entries,
    indefinite and near-singular draws, and exact L D L^H matrices whose
    pivot at each row is zero, negative or NaN."""
    for _ in range(300):
        x = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
        z = x + 1j * rng.normal(size=(n, n))
        yield (x @ x.T).tolist(), 0.0
        yield (z @ z.conj().T).tolist(), 0.0
        mixed = random_cm(rng, n // 2).tolist()  # Gamma + i Delta: complex where Delta is not 0
        for i in range(0, n, 2):
            mixed[i][i + 1] = complex(mixed[i][i + 1], 1.0)
            mixed[i + 1][i] = complex(mixed[i + 1][i], -1.0)
        yield mixed, nfg.states.DEFAULT_TOL
        yield (x + x.T).tolist(), 0.0  # indefinite mostly: fails at some row
        thin = rng.normal(size=(n, n - 1))  # rank n - 1: the last pivot ~ 0
        for shift in (0.0, 1e-15, -1e-15, 1e-12):
            yield (thin @ thin.T).tolist(), shift
    for k in range(n):
        for complex_entries in (False, True):
            low = _unit_lower(rng, n, complex_entries)
            for bad in (0.0, -1.0, np.nan):
                d = 2.0 ** rng.integers(-3, 4, size=n)
                d[k] = 0.0 if np.isnan(bad) else bad
                h = (low * d) @ low.conj().T
                if np.isnan(bad):
                    h[k, k] = h[k, rng.integers(k + 1)] = np.nan
                yield h.tolist(), 0.0


def _boundary_draws(rng, count: int):
    """2 x 2 and 4 x 4 covariance matrices of pure states, nu = 1 on the
    physical boundary, scaled by 1 +- 10^-12..10^-6, and skewed by 0.99 and
    1.01 times the symmetry tolerance at a random entry: three draws per
    state, ``count`` states."""
    for i in range(count):
        n = 1 + i % 2
        if i % 4 == 3:
            g = stream_shaped_cm(rng, nus=[1.0, 1.0])
        else:
            g = random_cm(rng, n, nus=np.ones(n))
        yield g * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0))
        i, j = rng.choice(2 * n, 2, replace=False)
        for slack in (0.99, 1.01):
            skew = g.copy()
            skew[i, j] += slack * nfg.states.DEFAULT_TOL * max(1.0, np.abs(g).max())
            yield skew


@pytest.fixture
def factored(monkeypatch):
    """Every (h, shift) that `_ldl_4` is handed, of 2 or 4 rows."""
    seen = []

    def spy(h, shift, _body=nfg.states._ldl_4):
        seen.append((h, shift))
        return _body(h, shift)

    monkeypatch.setattr(nfg.states, "_ldl_4", spy)
    return seen


class TestWrittenOutKernels:
    """The 2- and 4-row `_ldl_4` bodies and verdicts are the row loop
    (`helpers._ldl_rows`) written out: the same operations in the same
    order, so the same bits."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_ldl_matches_the_row_loop_bit_for_bit(self, rng, n):
        failed = set()
        for h, shift in _ldl_draws(rng, n):
            expected = _ldl_rows(h, shift)
            # repr tells -0.0 from 0.0 and round-trips every float
            assert repr(nfg.states._ldl_4(h, shift)) == repr(expected)
            if expected is None:  # the first leading block that does not factor
                leading = ([row[:k] for row in h[:k]] for k in range(1, n + 1))
                failed.add(next(len(b) for b in leading if _ldl_rows(b, shift) is None))
        assert failed == set(range(1, n + 1))  # a failure at every row

    def test_ldl_reads_the_lower_triangle_only(self, rng):
        for n in (2, 4):
            for h, shift in itertools.islice(_ldl_draws(rng, n), 40):
                lower = [row[: i + 1] for i, row in enumerate(h)]
                assert repr(nfg.states._ldl_4(lower, shift)) == repr(nfg.states._ldl_4(h, shift))

    @staticmethod
    def assert_loop_verdict(g, factored) -> tuple[bool, bool]:
        """`_verdict` of g against `loop_verdict`; the lower triangle it
        factors must be the loop's Simon matrix's, bit for bit."""
        factored.clear()
        verdict = nfg.states._verdict(g, g.tolist())
        assert verdict == loop_verdict(g)
        simon = loop_simon(g)[1]
        if simon is None:
            assert factored == []
        else:
            [(h, shift)] = factored
            assert shift == nfg.states.DEFAULT_TOL
            lower = [row[: i + 1] for i, row in enumerate(simon)]
            assert repr([list(row) for row in h]) == repr(lower)
        return verdict

    def test_verdict_matches_the_loop_on_the_corpus(self, rng, factored):
        draws = [g for g, _, _ in _verdict_corpus(rng) if len(g) <= 4]
        draws += [g for n in (1, 2) for g in _asymmetric_draws(rng, n)]
        # subnormal diagonals, whose `_mid` halves round, equilibrated without overflow
        draws += [g * 2.0**-1023 for g in draws[:50]]
        outcomes = set()
        for g in draws:
            outcomes.add(self.assert_loop_verdict(g, factored))
            # the report's symmetric part has the loop's bits
            gs = nfg.states._symmetric_part(g)[1]
            assert repr(gs.tolist()) == repr(nfg.states._symmetric_rows(g.tolist())[1])
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_verdict_matches_the_loop_on_boundary_draws(self, rng, factored):
        outcomes = collections.Counter()
        for g in _boundary_draws(rng, 3400):
            outcomes[len(g), self.assert_loop_verdict(g, factored)] += 1
        assert sum(outcomes.values()) >= 10_000
        for n in (2, 4):
            assert {verdict for size, verdict in outcomes if size == n} == {
                (True, True),
                (True, False),
                (False, False),
            }


class TestLazySymmetryRule:
    """Every symmetry test reads max|g| only when the asymmetry passes half
    the tolerance (`_nearly_symmetric`, `_symmetric_part`).  On draws at
    both of the rule's bounds, each decides as the eager rule, which reads
    max(1, max|g|) first (`helpers.eager_symmetric_rows`)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_rows_and_part(self, rng, n):
        outcomes = collections.Counter()
        for g in _symmetry_threshold_draws(rng, n):
            rows = g.tolist()
            symmetric, gs = eager_symmetric_rows(rows)
            assert repr(nfg.states._symmetric_rows(rows)) == repr((symmetric, gs))
            assert nfg.states._symmetric_part(g)[0] == symmetric
            outcomes[symmetric, float(np.abs(g).max()) > 1.0] += 1
        # both verdicts, with max|g| below and above 1
        assert len(outcomes) == 4

    @pytest.mark.parametrize("n", [1, 2])
    def test_verdicts(self, rng, n):
        verdict = nfg.states._verdict_2 if n == 1 else nfg.states._verdict_4
        outcomes = set()
        for g in _symmetry_threshold_draws(rng, n):
            outcome = verdict(g.tolist())
            assert outcome == loop_verdict(g)
            outcomes.add(outcome[0])
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_channel(self, rng, n):
        # K = I leaves M's symmetric part, positive definite, to the CP test
        outcomes = set()
        for m in _symmetry_threshold_draws(rng, n):
            symmetric = eager_symmetric_rows(m.tolist())[0]
            try:
                GaussianChannel(np.eye(2 * n), m)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "noise matrix M must be symmetric"
                accepted = False
            assert accepted == symmetric
            outcomes.add(accepted)
        assert outcomes == {True, False}


class TestOneModeChannel:
    """The one-mode channel check is written out (`_channel_2`): it must
    give what the generic list loops it replaced give (`helpers.loop_channel`),
    bit for bit: the same ``m_noise`` and kept rows, the same matrix and
    allowance handed to `_ldl_4`, and the same error, in the same order."""

    @staticmethod
    def assert_loop_channel(k, m, factored) -> str | None:
        """`GaussianChannel(k, m)` against `loop_channel`, on copies each
        keeps as they are; return the error text, or None."""
        k, m = np.array(k, float), np.array(m, float)
        k.setflags(write=False)
        m.setflags(write=False)
        try:
            expected, expected_error = loop_channel(k, m), None
        except ValueError as exc:
            expected, expected_error = None, str(exc)
        factored.clear()
        try:
            ch, error = GaussianChannel(k, m), None
        except ValueError as exc:
            ch, error = None, str(exc)
        assert error == expected_error
        if expected is None:
            if not error.startswith("invalid channel"):
                assert factored == []  # refused before the CP test
            return error
        noise, rows, h, allowance = expected
        assert (ch.m_noise is m) == (noise is m)
        assert ch.m_noise.tobytes() == noise.tobytes() and not ch.m_noise.flags.writeable
        assert repr(ch._m_rows) == repr(rows)
        assert repr(factored) == repr([(h, allowance)])
        return None

    def test_matches_the_loops_on_the_verdict_draws(self, rng, factored):
        errors = collections.Counter()
        for k, m in _channel_draws(rng):
            if k.shape == (2, 2):
                error = self.assert_loop_channel(k, m, factored)
                errors[error if error is None else error.split(":")[0]] += 1
        assert set(errors) == {None, "invalid channel"}

    def test_matches_the_loops_at_the_symmetry_bounds(self, rng, factored):
        for m in _symmetry_threshold_draws(rng, 1):
            self.assert_loop_channel(rng.normal(size=(2, 2)), m, factored)

    @pytest.mark.parametrize(
        "k, m, error",
        [
            pytest.param(np.eye(2), [[1.0, 0.5], [0.5 + 1e-12, 1.0]], None, id="asymmetric"),
            pytest.param(np.eye(2), [[1.0, -0.0], [0.0, 1.0]], None, id="zero-signs"),
            pytest.param(np.eye(2), [[1.0, -0.0], [-0.0, 1.0]], None, id="negative-zeros"),
            pytest.param(np.eye(2), [[-0.0, 0.0], [0.0, 1.0]], None, id="negative-zero-diagonal"),
            pytest.param(np.eye(2), [[5e-324, 0.0], [0.0, 1.0]], None, id="subnormal-diagonal"),
            pytest.param(np.eye(2), [[-5e-324, 0.0], [0.0, 1.0]], None, id="negative-subnormal"),
            pytest.param(
                [[2e150, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]],
                "entries of K must be at most 1e+150 in modulus, got 2e+150", id="peak-first",
            ),
            pytest.param(
                2.0 * np.eye(2), [[0.0, 0.5], [0.0, 0.0]],
                "noise matrix M must be symmetric", id="symmetry-before-cp",
            ),
            pytest.param(
                2.0 * np.eye(2), np.zeros((2, 2)),
                "invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -3 < 0", id="cp",
            ),
        ],
    )  # fmt: skip
    def test_fixed_cases(self, factored, k, m, error):
        assert self.assert_loop_channel(k, m, factored) == error


class TestScalarVerdict:
    """Up to 4 x 4 the Simon verdict and the channel check are a scalar
    Cholesky test, and beyond it LAPACK's.  It decides as the eigensolve it
    replaced (kept in `helpers`) on every draw outside a rounding band
    around the threshold, and `validate_cm` agrees with construction on
    every draw."""

    @staticmethod
    def agree(cms) -> np.ndarray:
        """Cross-check (1+1) matrices; return the acceptance of each."""
        cms = np.array(list(cms))
        physical, margin = reference_verdict(cms)
        accepted = np.empty(len(cms), dtype=bool)
        for i, g in enumerate(cms):
            try:
                GaussianState(g, 1, 1)
                accepted[i] = True
            except ValueError:
                accepted[i] = False
            assert validate_cm(g).physical == accepted[i]
            if not abs(margin[i]) <= BAND:  # NaN: screened before the test
                assert accepted[i] == physical[i], margin[i]
        return accepted

    def test_stream_shaped_states_and_their_sub_vacuum_copies(self, rng):
        cms = [stream_shaped_cm(rng) for _ in range(4000)]
        cms += [rng.uniform(0.5, 1.0) * g for g in cms]
        accepted = self.agree(cms)
        assert accepted[:4000].all() and not accepted[4000:].all()

    def test_near_boundary_states(self, rng):
        accepted = self.agree(_near_boundary_cms(rng, 6000))
        assert 1000 < accepted.sum() < 5000

    def test_states_up_to_n_bar_1e13(self, rng):
        cms = [stream_shaped_cm(rng, log_n_bar_max=13.0) for _ in range(3000)]
        for n_bar in np.geomspace(1e-3, 1e13, 17):
            cms += [ssts(SstsParams(n_bar, mu)).cm for mu in (0.0, 0.5, 0.9, 0.99, 1.0)]
            cms.append(tmsv(np.arcsinh(np.sqrt(n_bar))).cm)
        physical = len(cms)
        cms += [rng.uniform(0.5, 1.0) * g for g in cms[:1000]]
        accepted = self.agree(cms)
        assert accepted[:physical].all() and not accepted[physical:].all()

    def test_singular_family_keeps_its_decisions(self):
        # a = b = c = -d, nu_min = 0: rejected up to 2e4, within the
        # tolerance from 3e4 on
        z = np.diag([1.0, -1.0])
        unit = np.block([[np.eye(2), z], [z, np.eye(2)]])
        scales = np.geomspace(1e2, 1e6, 81)
        accepted = self.agree(a * unit for a in scales)
        assert not accepted[scales <= 2e4].any() and accepted[scales >= 3e4].all()

    def test_channels(self, rng):
        outcomes = []
        for k, m in _channel_draws(rng):
            expected, margin, scale = reference_channel_verdict(k, m)
            try:
                GaussianChannel(k, m)
                accepted = True
            except ValueError as exc:
                assert str(exc).startswith("invalid channel")
                accepted = False
            if abs(margin) > BAND * max(1.0, scale):
                assert accepted == expected, margin
            if k.shape == (2, 2):
                need = (_exact_det(k) - 1) ** 2
                gap = _exact_det(m) - need
                if gap < -need / 10**6:  # not completely positive
                    # nothing the eigensolve rejects passes
                    assert expected or not accepted
            outcomes.append(accepted)
        assert 0.2 < np.mean(outcomes) < 0.8

    def test_two_mode_acceptance_calls_no_linear_algebra(self, rng, monkeypatch):
        cm, ch = stream_shaped_cm(rng), random_channel(rng)
        p, s_a, _ = standard_form(GaussianState(cm, 1, 1))
        multimode = random_cm(rng, 3)
        channels = [ch, dilation_channel(rng, 2), dilation_channel(rng, 3)]
        calls = linalg_calls(monkeypatch)
        GaussianState(cm, 1, 1)
        StandardFormParams(p.a, p.b, p.c, p.d)
        for ch in channels:  # one, two and three modes
            GaussianChannel(ch.k, ch.m_noise)
        GaussianUnitary(s_a)
        assert calls == ["cholesky"]  # the three-mode channel's, beyond 4 x 4
        GaussianState(multimode, 2, 1)
        assert calls == ["cholesky"] * 2

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2))),
                "invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -3 < 0",
            ),
            (
                lambda: GaussianChannel(np.zeros((2, 2)), 0.5 * np.eye(2)),
                "invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -0.5 < 0",
            ),
            (
                lambda: GaussianChannel(np.diag([2.0, 2.0, 1.0, 1.0]), np.diag([1.0, 1.0, 10.0, 10.0])),
                "invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -2 < 0",
            ),
            (
                lambda: GaussianChannel(1.5 * np.eye(6), np.eye(6)),
                "invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -0.25 < 0",
            ),
            (
                lambda: StandardFormParams(0.5, 2.0, 0.0, 0.0),
                "standard-form parameters are not physical: a=0.5, b=2.0, c=0.0, d=0.0",
            ),
            (
                lambda: GaussianUnitary(2.0 * np.eye(2)),
                "matrix does not satisfy S Delta S^T = Delta",
            ),
            (
                lambda: GaussianState(np.diag([3.0, 3.0, 0.9, 0.9]), 1, 1),
                "covariance matrix is not physical (symmetric=True, "
                "positive_definite=True, min symplectic eigenvalue=0.9)",
            ),
        ],
        ids=["amplifier", "erasure", "two-mode", "three-mode", "params", "unitary", "state"],
    )
    def test_rejection_messages_are_unchanged(self, build, message):
        # recorded with the eigensolve the scalar test replaced
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def _channel_draws(rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(K, M)`` pairs around complete positivity: one-mode channels of the
    ill-conditioned recipe (M nearly rank one, det M 10% either side of
    (det K - 1)^2), then one-, two- and three-mode channels with their noise
    scaled either side of enough, and the three-mode ones again with
    max|M| ~ 1e300."""
    draws = []
    for _ in range(4000):
        k = rng.normal(size=(2, 2)) * 10 ** rng.uniform(-2, 2)
        v = rng.normal(size=2)
        m = np.outer(v, v) + 10 ** rng.uniform(-8, 0) * np.eye(2)
        m *= np.sqrt(rng.uniform(0.9, 1.1) * (np.linalg.det(k) - 1) ** 2 / np.linalg.det(m))
        draws.append((k, m))
    for _ in range(1000):
        ch = random_channel(rng)
        draws.append((ch.k, rng.uniform(0.5, 1.5) * ch.m_noise))
        ch = dilation_channel(rng, 2)
        draws.append((ch.k, rng.uniform(0.5, 1.5) * ch.m_noise))
        ch = dilation_channel(rng, 3)
        draws.append((ch.k, rng.uniform(0.5, 1.5) * ch.m_noise))
        draws.append((ch.k, 1e300 / np.abs(ch.m_noise).max() * ch.m_noise))
    return draws


def _symmetry_threshold_draws(rng, n: int):
    """2n x 2n diagonally dominant matrices, so positive definite, whose
    asymmetry, half the difference of one mirrored pair (the other entry of
    the pair 0), sits on, one ulp either side of, and 1e-6 either side of
    each bound of `_nearly_symmetric`: half `DEFAULT_TOL`, and half
    `DEFAULT_TOL` max|g|, with max|g| below and above 1."""
    tol = nfg.states.DEFAULT_TOL
    for _ in range(10):
        i, j = rng.permutation(2 * n)[:2]
        base = rng.uniform(-1.0, 1.0, (2 * n, 2 * n)) / (4 * n)
        base = base + base.T
        np.fill_diagonal(base, rng.uniform(0.5, 1.0, 2 * n))
        for peak in (0.25, 1.0 - 2.0**-20, 4.0, 1e300):
            g = base * (peak / np.abs(base).max())
            g[i, j] = g[j, i] = 0.0
            scale = float(np.abs(g).max())
            for bound in (tol, tol * scale):
                for gap in (
                    bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf),
                    bound * (1.0 - 1e-6), bound * (1.0 + 1e-6),
                ):  # fmt: skip
                    moved = g.copy()
                    moved[i, j] = rng.choice([-1.0, 1.0]) * gap
                    yield moved


def _multimode_boundary_draws(rng, count: int):
    """6 x 6, 8 x 8 and 10 x 10 covariance matrices around the Simon
    threshold, six per state, ``count`` states: a random state; a pure one,
    nu = 1 on the physical boundary, scaled by 1 +- 10^-12..10^-6, and
    skewed by 0.99 and 1.01 times the symmetry tolerance at a random entry;
    that pure one minus x diag(Gamma), so that its equilibrated matrix has
    its smallest eigenvalue within 1e-6, 1e-9 or 1e-11 of -DEFAULT_TOL (see
    `_near_boundary_cms`); and the random state scaled by a power of two
    that puts its smallest diagonal entry in [2^-1023, 2^-1022), subnormal
    but large enough to equilibrate without overflow."""
    tol = nfg.states.DEFAULT_TOL
    for i in range(count):
        n = 3 + i % 3
        g, pure = random_cm(rng, n), random_cm(rng, n, nus=np.ones(n))
        yield g
        yield pure * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0))
        r, c = rng.choice(2 * n, 2, replace=False)
        for slack in (0.99, 1.01):
            skew = pure.copy()
            skew[r, c] += slack * tol * max(1.0, np.abs(pure).max())
            yield skew
        spread = rng.choice([1e-6, 1e-9, 1e-11])
        target = -tol + rng.uniform(-spread, spread)
        yield pure - target / (target - 1.0) * np.diag(np.diag(pure))
        yield np.ldexp(g, -1022 - math.frexp(np.diag(g).min())[1])


def _lower_repr(m: np.ndarray) -> str:
    """The repr of a square matrix's lower triangle, row by row: it tells
    -0.0 from 0.0 and round-trips every float."""
    return repr([row[: i + 1] for i, row in enumerate(m.tolist())])


def _overflowing_cm(dim: int, tiny: int, far: int) -> np.ndarray:
    """The dim x dim identity with the mode of rows ``tiny`` and ``tiny`` + 1
    at variance 1e-300 and a 1e300 correlation between rows ``tiny`` and
    ``far``: symmetric and finite, but its equilibration overflows."""
    g = np.eye(dim)
    g[tiny, tiny] = g[tiny + 1, tiny + 1] = 1e-300
    g[tiny, far] = g[far, tiny] = 1e300
    return g


class TestCholeskyVerdict:
    """Beyond 4 x 4 the Simon verdict asks whether the equilibrated matrix
    plus `DEFAULT_TOL` I has a Cholesky factor from LAPACK, the rule `_ldl_4`
    applies up to 4 x 4.  It decides as the eigensolve it replaced (kept in
    `helpers`) on every draw outside a rounding band around the threshold,
    factors that eigensolve's matrix bit for bit, and no path that accepts
    a state, a map or a channel runs an eigensolve."""

    def test_agrees_with_the_eigensolve_outside_the_band(self, rng):
        outcomes, in_band = collections.Counter(), 0
        for g in _multimode_boundary_draws(rng, 1700):
            modes = len(g) // 2
            physical, margin = reference_verdict(g)
            try:
                GaussianState(g, modes - 1, 1)
                accepted = True
            except ValueError:
                accepted = False
            assert validate_cm(g).physical == accepted
            if abs(margin) <= BAND:
                in_band += accepted != physical
            else:  # NaN too: screened before the test
                assert accepted == physical, margin
            outcomes[modes, accepted] += 1
        assert sum(outcomes.values()) >= 10_000
        assert set(outcomes) == {(m, a) for m in (3, 4, 5) for a in (True, False)}
        assert in_band <= 10

    def test_factors_the_eigensolve_matrix_bit_for_bit(self, rng, monkeypatch):
        handed, cholesky = [], np.linalg.cholesky

        def spy(m):
            handed.append(m.copy())
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        draws = list(_multimode_boundary_draws(rng, 150))
        draws += [g for n in (3, 4) for g in _asymmetric_draws(rng, n)]
        factored = 0
        for g in draws:
            handed.clear()
            nfg.states._verdict(g, g.tolist())
            with np.errstate(over="ignore", invalid="ignore"):  # g * 1e-310 overflows
                screened, simon = reference_simon(g)
            if not screened:
                assert handed == []
                continue
            simon[np.diag_indices(len(g))] += nfg.states.DEFAULT_TOL
            assert len(handed) == 1
            assert _lower_repr(handed[0]) == _lower_repr(simon)
            factored += 1
        assert factored > 1000

    @pytest.mark.parametrize("lapack", [False, True], ids=["nan-factor", "nan-input"])
    def test_a_nan_factor_reads_not_physical(self, rng, monkeypatch, lapack):
        # A NaN factor as such, and whatever LAPACK makes of a NaN matrix:
        # OpenBLAS 0.3.31 returns a NaN factor, reference LAPACK fails.
        g, cholesky = random_cm(rng, 3), np.linalg.cholesky
        assert validate_cm(g).physical

        def nan_factor(m):
            nan = np.full_like(m, np.nan)
            return cholesky(nan) if lapack else nan

        monkeypatch.setattr(np.linalg, "cholesky", nan_factor)
        assert not validate_cm(g).physical
        with pytest.raises(ValueError, match="not physical"):
            GaussianState(g, 2, 1)

    def test_cholesky_factor_shifts_a_copy(self, rng):
        # The channel check names the smallest eigenvalue of the matrix it
        # factored, so the shift must not reach the caller's array.
        m = random_cm(rng, 3)
        before = m.copy()
        factor = nfg.states._cholesky_factor(m, 0.5)
        assert np.array_equal(m, before)
        assert np.array_equal(factor, np.linalg.cholesky(m + 0.5 * np.eye(6)))
        assert nfg.states._cholesky_factor(m, -2.0 * np.linalg.eigvalsh(m)[-1]) is None
        with pytest.raises(ValueError, match="must be positive definite"):
            williamson(m - 2.0 * np.linalg.eigvalsh(m)[-1] * np.eye(6))

    def test_a_failed_factor_reads_not_physical(self, rng, monkeypatch):
        g = random_cm(rng, 4)

        def refuse(m):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert not validate_cm(g).physical
        with pytest.raises(ValueError, match="not physical"):
            GaussianState(g, 2, 2)

    @pytest.mark.parametrize(
        "dim, tiny, far",
        [(4, 0, 2), (6, 0, 2), (6, 4, 0), (6, 2, 5), (8, 6, 1), (10, 4, 9)],
    )
    def test_an_overflowing_equilibration_reads_not_physical(self, dim, tiny, far):
        g = _overflowing_cm(dim, tiny, far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not validate_cm(g).physical
            with pytest.raises(ValueError, match="not physical"):
                GaussianState(g, dim // 2 - 1, 1)

    def test_no_acceptance_path_runs_an_eigensolve(self, rng, monkeypatch):
        partitions = [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3)]
        states = [random_state(rng, n_a, n_b, displaced=True) for n_a, n_b in partitions]
        unitaries = [
            GaussianUnitary(random_symplectic(rng, n), rng.normal(size=2 * n)) for n in (1, 2, 3)
        ]
        channels = [dilation_channel(rng, n) for n in (1, 2, 3)]
        p = standard_form(states[1])[0]
        calls = linalg_calls(monkeypatch)
        for state in states:
            state = GaussianState(state.cm, state.n_a, state.n_b, state.mean)
            apply_gaussian_unitary(state, unitaries[state.n_a - 1], "A")
            if state.n_b:
                apply_channel(state, channels[state.n_b - 1], "B")
        for u, ch in zip(unitaries, channels):
            GaussianUnitary(u.s, u.m)
            GaussianChannel(ch.k, ch.m_noise, ch.d_bar)
        StandardFormParams(p.a, p.b, p.c, p.d)
        # one factor per test beyond 4 x 4: the verdicts of the five states
        # of three or more modes and of each of their two maps, and the
        # three-mode channel's check
        assert calls == ["cholesky"] * 16


#: (build, field, length): build(v) makes a valid instance with v as its
#: vector field ``field``, which must have ``length`` entries.
VECTOR_FIELDS = [
    pytest.param(lambda v: GaussianState(np.eye(4), 1, 1, mean=v), "mean", 4, id="mean"),
    pytest.param(lambda v: GaussianUnitary(np.eye(2), m=v), "m", 2, id="m"),
    pytest.param(
        lambda v: GaussianChannel(np.eye(2), np.zeros((2, 2)), d_bar=v), "d_bar", 2, id="d_bar"
    ),
]


class TestVectorFields:
    @pytest.mark.parametrize("build, field, n", VECTOR_FIELDS)
    def test_none_gives_zeros_and_a_vector_is_kept(self, build, field, n):
        assert np.array_equal(getattr(build(None), field), np.zeros(n))
        v = np.arange(1.0, n + 1.0)
        assert np.array_equal(getattr(build(list(v)), field), v)

    @pytest.mark.parametrize("build, field, n", VECTOR_FIELDS)
    def test_none_gives_one_shared_frozen_zero_vector(self, build, field, n):
        zeros = getattr(build(None), field)
        assert getattr(build(None), field) is zeros is nfg.states._as_vector(None, n, field)[0]
        assert not zeros.flags.writeable and zeros.base is None
        with pytest.raises(ValueError, match="read-only"):
            zeros[0] = 1.0

    def test_maps_copy_the_shared_zero_mean(self, rng):
        state = GaussianState(random_cm(rng, 2), 1, 1)
        u = GaussianUnitary(rotation(0.3))
        ch = GaussianChannel(rotation(0.2), 0.5 * np.eye(2))
        zeros = state.mean
        assert u.m is ch.d_bar is nfg.states._as_vector(None, 2, "m")[0]
        for side in ("A", "B"):
            for out in (apply_gaussian_unitary(state, u, side), apply_channel(state, ch, side)):
                assert out.mean is not zeros and not np.shares_memory(out.mean, zeros)
                assert not out.mean.flags.writeable
        for shared in (zeros, u.m):
            assert float_bits(shared.tolist()) == [(0.0).hex()] * len(shared)

    @pytest.mark.parametrize("build, field, n", VECTOR_FIELDS)
    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf", "-inf"])
    def test_bad_vector_rejected_naming_the_field(self, build, field, n, bad):
        v = np.zeros(n)
        if bad in ("nan", "inf", "-inf"):
            v[-1] = float(bad)
        else:
            v = {"short": np.zeros(n - 1), "long": np.zeros(n + 1), "matrix": np.zeros((n, 1))}[bad]
        with pytest.raises(ValueError, match=f"^{field} must be a finite vector of length {n}, got"):
            build(v)


#: A complex real-shaped array for each array field of the three constructors.
_SKEW = 0.5j * np.eye(2)[::-1]
COMPLEX_FIELDS = [
    pytest.param(lambda: GaussianState(np.eye(4) + 0.5j * np.eye(4)[::-1], 1, 1), id="cm"),
    pytest.param(lambda: GaussianState(np.eye(4), 1, 1, np.full(4, 1j)), id="mean"),
    pytest.param(lambda: GaussianUnitary(np.eye(2) + _SKEW), id="S"),
    pytest.param(lambda: GaussianUnitary(np.eye(2), np.full(2, 1j)), id="m"),
    pytest.param(lambda: GaussianChannel((1 + 1j) * np.eye(2), np.eye(2)), id="K"),
    pytest.param(lambda: GaussianChannel(np.eye(2), np.eye(2) + _SKEW), id="M"),
    pytest.param(lambda: GaussianChannel(np.eye(2), np.eye(2), np.full(2, 1j)), id="d_bar"),
]


#: (build, name, ndim): for each array field of the three constructors,
#: build(x) makes an instance with x as that field, the others valid, and
#: returns the array it keeps; a rejection names the field ``name``.
ARRAY_FIELDS = [
    pytest.param(lambda x: GaussianState(x, 1, 0).cm, "covariance matrix", 2, id="cm"),
    pytest.param(lambda x: GaussianState(np.eye(2), 1, 0, x).mean, "mean", 1, id="mean"),
    pytest.param(lambda x: GaussianUnitary(x).s, "symplectic matrix", 2, id="S"),
    pytest.param(lambda x: GaussianUnitary(np.eye(2), x).m, "m", 1, id="m"),
    pytest.param(lambda x: GaussianChannel(x, np.eye(2)).k, "K", 2, id="K"),
    pytest.param(lambda x: GaussianChannel(np.eye(2), x).m_noise, "M", 2, id="M"),
    pytest.param(lambda x: GaussianChannel(np.eye(2), np.eye(2), x).d_bar, "d_bar", 1, id="d_bar"),
]


def _identity_like(ndim: int, dtype) -> np.ndarray:
    """The one-mode identity (``ndim`` 2) or zero vector (1) in ``dtype``:
    values a float cast would accept."""
    return (np.eye(2, dtype=int) if ndim == 2 else np.zeros(2, dtype=int)).astype(dtype)


class TestOwnership:
    @pytest.mark.parametrize("build", COMPLEX_FIELDS)
    def test_complex_input_rejected(self, build):
        # A cast to float would drop the imaginary part with only a warning.
        with pytest.raises(ValueError, match="must be real, got complex entries"):
            build()

    @pytest.mark.parametrize("build, name, ndim", ARRAY_FIELDS)
    @pytest.mark.parametrize("dtype, what", [(bool, "bool"), (str, "string"), (bytes, "string")])
    def test_bool_and_string_input_rejected(self, build, name, ndim, dtype, what):
        # A cast to float would read True as 1.0 and parse "3" as 3.0; nested
        # lists of such entries are refused as arrays of them are.
        x = _identity_like(ndim, dtype)
        for given in (x, x.tolist()):
            with pytest.raises(ValueError, match=f"^{name} must be numeric, got {what} entries$"):
                build(given)

    def test_bool_and_string_matrices_rejected_by_the_functions(self):
        for check in (validate_cm, is_symplectic):
            with pytest.raises(ValueError, match="must be numeric, got bool entries"):
                check(np.eye(4, dtype=bool))
            with pytest.raises(ValueError, match="must be numeric, got string entries"):
                check([["3", "0"], ["0", "3"]])

    @pytest.mark.parametrize("build, name, ndim", ARRAY_FIELDS)
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.longdouble])
    def test_other_real_input_is_cast_once(self, build, name, ndim, dtype):
        x = _identity_like(ndim, dtype)
        kept = build(x)
        assert kept.dtype == np.float64 and kept.base is None and not kept.flags.writeable
        assert np.array_equal(kept, x.astype(float))

    def test_caller_input_stays_isolated(self, rng):
        ch = random_channel(rng)
        cm, mean = random_cm(rng, 2), rng.normal(size=4)
        s, shift = rotation(0.3), rng.normal(size=2)
        k, m, d_bar = np.array(ch.k), np.array(ch.m_noise), rng.normal(size=2)
        state, u = GaussianState(cm, 1, 1, mean), GaussianUnitary(s, shift)
        channel = GaussianChannel(k, m, d_bar)
        held = [state.cm, state.mean, u.s, u.m, channel.k, channel.m_noise, channel.d_bar]
        kept = [a.copy() for a in held]
        for a in (cm, mean, s, shift, k, m, d_bar):
            assert a.flags.writeable
            a += 1.0
        for a, b in zip(held, kept):
            assert not a.flags.writeable and np.array_equal(a, b)
        # a read-only view of memory the caller can still write is copied too
        view = cm.view()
        view.setflags(write=False)
        assert not np.shares_memory(GaussianState(view, 1, 1).cm, cm)
        for out in (apply_gaussian_unitary(state, u, "A"), apply_channel(state, channel)):
            for a, b in ((out.cm, state.cm), (out.mean, state.mean)):
                assert not a.flags.writeable and not np.shares_memory(a, b)

    def test_symmetric_noise_is_kept_without_a_copy(self, rng):
        for m in (0.8 * np.eye(2), random_channel(rng).m_noise, random_cm(rng, 2)):
            m = np.array(m)
            m.setflags(write=False)  # an `_owned` array: taken as it is
            k = np.eye(len(m))
            assert GaussianChannel(k, m).m_noise is m
            # a caller's writable M: one copy, kept
            kept = GaussianChannel(k, m.copy()).m_noise
            assert kept.base is None and not kept.flags.writeable
            assert kept.tobytes() == m.tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param([[1.0, 0.5], [0.5 + 1e-12, 1.0]], id="asymmetric"),
            pytest.param([[1.0, -0.0], [0.0, 1.0]], id="zero-signs"),
            pytest.param([[5e-324, 0.0], [0.0, 1.0]], id="subnormal-diagonal"),
        ],
    )
    def test_noise_not_equal_to_its_symmetric_part_in_bits_is_rebuilt(self, m):
        m = np.array(m)
        m.setflags(write=False)
        noise = GaussianChannel(np.eye(2), m).m_noise
        assert noise is not m and not noise.flags.writeable
        expected = nfg.states._symmetric_rows(m.tolist())[1]
        assert noise.tobytes() == np.array(expected).tobytes() != m.tobytes()

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_rows_are_the_cm_and_never_written(self, rng, n_a, n_b):
        n = n_a + n_b
        cm = random_cm(rng, n)
        cm[0, 1] += 1e-12  # asymmetric within tolerance, as listed
        states = [
            GaussianState(cm.tolist(), n_a, n_b),
            GaussianState(random_cm(rng, n), n_a, n_b, rng.normal(size=2 * n)),
        ]
        kept = [[row.copy() for row in state._rows] for state in states]
        u = GaussianUnitary(random_symplectic(rng, n_a), rng.normal(size=2 * n_a))
        outputs = [apply_gaussian_unitary(state, u, "A") for state in states]
        if n_b:
            ch = dilation_channel(rng, n_b)
            outputs += [apply_channel(state, ch, "B") for state in states]
        if (n_a, n_b) == (1, 1):
            for state in states + outputs:
                standard_form(state)
        for a in states + outputs:
            for b in states + outputs:
                overlap(a, b), purity(a), fidelity_f(a, b), c_squared(a, b)
        for state, rows in zip(states, kept):
            assert float_bits(state._rows) == float_bits(rows)
        for state in states + outputs:
            assert float_bits(state._rows) == float_bits(state.cm.tolist())

    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2)])
    def test_cached_values_computed_once(self, rng, monkeypatch, n_a, n_b):
        state = random_state(rng, n_a, n_b)
        closed, closed_forms = nfg.states._two_mode_spectrum, []

        def spy(g):
            closed_forms.append(g)
            return closed(g)

        monkeypatch.setattr(nfg.states, "_two_mode_spectrum", spy)
        calls = linalg_calls(monkeypatch)
        mu, chol = state._correlation_spectrum, state._chol_a
        assert state._correlation_spectrum is mu and state._chol_a is chol
        assert len(closed_forms) == (n_a == 1)
        # L_A once, by LAPACK for one A mode; two A modes factor both
        # blocks in floats and decompose W by the one SVD
        assert calls == (["cholesky"] if n_a == 1 else ["svd"])


#: Non-finite values placed at every entry of the written-out checks.
NON_FINITE = [math.nan, math.inf, -math.inf]


def _chain_calls(monkeypatch) -> list[int]:
    """Spy on the generic finiteness test: each `itertools.chain` listing
    of `nfg.states` appends the number of rows it lists."""
    calls = []

    def from_iterable(rows):
        calls.append(len(rows))
        return itertools.chain.from_iterable(rows)

    chain = types.SimpleNamespace(from_iterable=from_iterable)
    monkeypatch.setattr(nfg.states, "itertools", types.SimpleNamespace(chain=chain))
    return calls


class TestWrittenOutChecks:
    """The entry-by-entry finiteness tests of 2 and 4 rows and entries, the
    one-mode peak of S, the int test of a mode count and the (1+1) C = 0
    test raise and decide as the generic code they replace."""

    #: (build, name): build(x) makes an instance with the square matrix x
    #: as the named field, the other fields valid.
    MATRICES = [
        (lambda x: GaussianState(x, len(x) // 2, 0), "covariance matrix"),
        (lambda x: GaussianUnitary(x), "symplectic matrix"),
        (lambda x: GaussianChannel(x, np.eye(len(x))), "K"),
        (lambda x: GaussianChannel(np.eye(len(x)), x), "M"),
    ]

    #: (build, name): build(v, n) makes an instance with the length-n vector
    #: v as the named field.
    VECTORS = [
        (lambda v, n: GaussianState(np.eye(n), n // 2, 0, v), "mean"),
        (lambda v, n: GaussianUnitary(np.eye(n), v), "m"),
        (lambda v, n: GaussianChannel(np.eye(n), np.zeros((n, n)), v), "d_bar"),
    ]

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_finite_matrix_entries_rejected(self, monkeypatch, dim):
        chained = _chain_calls(monkeypatch)
        for build, name in self.MATRICES:
            for i, j in itertools.product(range(dim), repeat=2):
                for bad in NON_FINITE:
                    x = np.eye(dim)
                    x[i, j] = bad
                    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
                        build(x)
        assert chained == []

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_finite_vector_entries_rejected(self, dim):
        for build, name in self.VECTORS:
            for i in range(dim):
                for bad in NON_FINITE:
                    v = np.zeros(dim)
                    v[i] = bad
                    message = f"^{name} must be a finite vector of length {dim}, got"
                    with pytest.raises(ValueError, match=message):
                        build(v, dim)

    def test_six_rows_keep_the_generic_test(self, monkeypatch):
        chained = _chain_calls(monkeypatch)
        GaussianState(np.eye(6), 2, 1)
        assert chained == [6]
        for i, j in itertools.product(range(6), repeat=2):
            for bad in NON_FINITE:
                x = np.eye(6)
                x[i, j] = bad
                with pytest.raises(ValueError, match="^covariance matrix has non-finite entries$"):
                    GaussianState(x, 2, 1)
                for build, name in self.MATRICES[1:]:
                    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
                        build(x)
        # one listing per matrix checked: cm, S, K, and K then M
        assert chained == [6] * (1 + 5 * 36 * len(NON_FINITE))
        with pytest.raises(ValueError, match="^mean must be a finite vector of length 6, got"):
            GaussianState(np.eye(6), 2, 1, [0.0] * 5 + [math.nan])

    @pytest.mark.parametrize("big", [2e150, -2e150])
    def test_one_mode_peak_of_s_at_every_entry(self, big):
        for i, j in itertools.product(range(2), repeat=2):
            s = np.eye(2)
            s[i, j] = big
            message = re.escape(f"entries of S must be at most 1e+150 in modulus, got {abs(big)}")
            for check in (is_symplectic, GaussianUnitary):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    check(s)

    def test_mode_count_int_test(self):
        class Count(int):
            pass

        for n in (1, 0, np.int64(1), np.int32(2), np.uint8(1), Count(1)):
            assert nfg.states._is_integer(n), repr(n)
        for n in (True, False, np.bool_(True), 1.0, np.float64(1.0), "1", None, 1 + 0j):
            assert not nfg.states._is_integer(n), repr(n)
        state = GaussianState(np.eye(4), np.int64(1), np.int64(1))
        assert (state.n_a, state.n_b) == (1, 1)
        with pytest.raises(ValueError, match="must be integers"):
            GaussianState(np.eye(4), np.bool_(True), 1)

    def test_one_plus_one_correlation_test(self):
        # Each upper cross entry alone makes C nonzero, a -0.0 counts as
        # zero, and the lower cross block is not read, as the generic test.
        def generic(state):
            return not any(x for row in state._rows[:2] for x in row[2:])

        for c in ([0.0] * 4, [-0.0] * 4, [0.0, -0.0, -0.0, 0.0]):
            g = 3.0 * np.eye(4)
            g[0, 2:], g[1, 2:] = c[:2], c[2:]
            state = GaussianState(g, 1, 1)
            assert state._uncorrelated and generic(state)
        for r, col in itertools.product((0, 1), (2, 3)):
            for x, mirrored in ((0.5, True), (1e-12, False), (-0.5, True)):
                g = 3.0 * np.eye(4)
                g[r, col] = x
                if mirrored:
                    g[col, r] = x
                state = GaussianState(g, 1, 1)
                assert not state._uncorrelated and not generic(state)
        g = 3.0 * np.eye(4)
        g[2, 0] = 1e-12  # below the diagonal only: not read
        assert GaussianState(g, 1, 1)._uncorrelated


class TestApplyGaussianUnitary:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_identity_leaves_state_unchanged(self, rng, side):
        state = random_state(rng, displaced=True)
        out = apply_gaussian_unitary(state, GaussianUnitary(np.eye(2)), side)
        assert np.array_equal(out.cm, state.cm)
        assert np.array_equal(out.mean, state.mean)

    def test_rotation_on_a_gives_predicted_cross_block(self):
        state = standard_state(StandardFormParams(2.0, 2.0, 1.0, -0.8))
        theta = 0.3
        out = apply_gaussian_unitary(state, GaussianUnitary(rotation(theta)), "A")
        c, d = 1.0, -0.8
        expected = np.array(
            [
                [c * np.cos(theta), d * np.sin(theta)],
                [-c * np.sin(theta), d * np.cos(theta)],
            ]
        )
        assert out.cm[:2, 2:] == pytest.approx(expected)

    def test_displacement_only(self):
        state = standard_state(StandardFormParams(2.0, 2.0, 1.0, -1.0))
        out = apply_gaussian_unitary(state, GaussianUnitary(np.eye(2), [1.0, 2.0]), "A")
        out = apply_gaussian_unitary(out, GaussianUnitary(np.eye(2), [3.0, 4.0]), "B")
        assert np.array_equal(out.cm, state.cm)
        assert np.array_equal(out.mean, [1.0, 2.0, 3.0, 4.0])

    def test_side_a_leaves_b_untouched_bitwise(self, rng):
        state = random_state(rng, 1, 2)
        u = GaussianUnitary(random_symplectic(rng, 1))
        out = apply_gaussian_unitary(state, u, "A")
        assert np.array_equal(out.cm[2:, 2:], state.cm[2:, 2:])
        assert np.array_equal(out.mean[2:], state.mean[2:])

    def test_side_b_leaves_a_untouched_bitwise(self, rng):
        state = random_state(rng, 2, 1)
        u = GaussianUnitary(random_symplectic(rng, 1))
        out = apply_gaussian_unitary(state, u, "B")
        assert np.array_equal(out.cm[:4, :4], state.cm[:4, :4])
        assert np.array_equal(out.mean[:4], state.mean[:4])

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_determinant_preserved(self, rng, side):
        for _ in range(20):
            state = random_state(rng, 2, 2)
            u = GaussianUnitary(random_symplectic(rng, 2))
            out = apply_gaussian_unitary(state, u, side)
            assert np.linalg.det(out.cm) == pytest.approx(
                np.linalg.det(state.cm), rel=1e-10
            )

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match side A"):
            apply_gaussian_unitary(random_state(rng), GaussianUnitary(np.eye(4)), "A")

    @pytest.mark.parametrize("side", ["global", "C", "a", ""])
    def test_unknown_side_rejected(self, rng, side):
        # "A" and "B" are the only sides; there is no whole-state option.
        for u in (GaussianUnitary(np.eye(2)), GaussianUnitary(np.eye(4))):
            with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
                apply_gaussian_unitary(random_state(rng), u, side)

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            GaussianUnitary(2.0 * np.eye(2))


#: Partitions with a 2-row side, and that side: (1+1) on both sides, B of
#: (2+1) and A of (1+2).
TWO_ROW_SIDES = [(1, 1, "A"), (1, 1, "B"), (2, 1, "B"), (1, 2, "A")]


def _mp_side_map(state, side, k, shift, noise=None):
    """``(cm, mean, cm_bound, mean_bound)``: one side of ``state`` mapped by
    the 2 x 2 ``k``, ``shift`` and ``noise`` at 50 digits, with the entrywise
    bounds |K~| |G| |K~|^T + |M~| and |K~| |d| + |shift~| the rounding of a
    float map is measured against (K~ = K on the side, I elsewhere)."""
    n, p = 2 * (state.n_a + state.n_b), 0 if side == "A" else 2 * state.n_a
    with mpmath.workdps(50):
        kt, mt, st = mpmath.eye(n), mpmath.zeros(n, n), mpmath.zeros(n, 1)
        for i in range(2):
            st[p + i] = shift[i]
            for j in range(2):
                kt[p + i, p + j] = k[i][j]
                mt[p + i, p + j] = 0.0 if noise is None else noise[i][j]
        g, d = mpmath.matrix(state.cm.tolist()), mpmath.matrix(state.mean.tolist())
        k_abs, m_abs = kt.apply(abs), mt.apply(abs)
        return (
            kt * g * kt.T + mt,
            kt * d + st,
            k_abs * g.apply(abs) * k_abs.T + m_abs,
            k_abs * d.apply(abs) + st.apply(abs),
        )


def _numpy_channel_on_b(state: GaussianState, ch: GaussianChannel) -> GaussianState:
    """The post-channel state by the NumPy map, `_act_on_side`, which larger
    sides still take: the reference the 2-row map is held to."""
    ka = 2 * state.n_a
    g = nfg.states._act_on_side(state.cm, ka, "B", ch.k)
    g[ka:, ka:] += ch.m_noise
    return GaussianState(g, state.n_a, state.n_b)


class TestRowMap:
    """The map of a 2-row side, in Python floats on the rows each object keeps."""

    @pytest.mark.parametrize("n_a, n_b, side", TWO_ROW_SIDES)
    def test_entries_within_a_few_eps_of_a_50_digit_map(self, rng, n_a, n_b, side):
        eps = float(np.finfo(float).eps)
        for i in range(40):
            if (n_a, n_b) == (1, 1) and i % 2:
                state = GaussianState(stream_shaped_cm(rng), 1, 1, 2.0 * rng.normal(size=4))
            else:
                state = random_state(rng, n_a, n_b, displaced=True)
            shift, drawn = rng.normal(size=2), random_channel(rng)
            ch = GaussianChannel(drawn.k, drawn.m_noise, shift)
            for u, noise in ((GaussianUnitary(random_symplectic(rng, 1), shift), None),
                             (ch, ch.m_noise)):  # fmt: skip
                k = u.s if noise is None else u.k
                out = (
                    apply_gaussian_unitary(state, u, side)
                    if noise is None
                    else apply_channel(state, u, side)
                )
                cm, mean, cm_bound, mean_bound = _mp_side_map(state, side, k, shift, noise)
                for r, row in enumerate(out.cm.tolist()):
                    for c, x in enumerate(row):
                        assert abs(x - cm[r, c]) <= 4 * eps * cm_bound[r, c], (r, c)
                for r, x in enumerate(out.mean.tolist()):
                    assert abs(x - mean[r]) <= 4 * eps * mean_bound[r], r
                # the other diagonal block and its mean are carried over bit
                # for bit, and the cross block is mirrored
                rows, kept = out._rows, state._rows
                other = range(2, len(rows)) if side == "A" else range(len(rows) - 2)
                for r in other:
                    assert float_bits([rows[r][c] for c in other]) == float_bits(
                        [kept[r][c] for c in other]
                    )
                    assert float_bits(out.mean[r]) == float_bits(state.mean[r])
                mapped = (0, 1) if side == "A" else (len(rows) - 2, len(rows) - 1)
                cross = [(r, c) for r in mapped for c in other]
                assert float_bits([rows[r][c] for r, c in cross]) == float_bits(
                    [rows[c][r] for r, c in cross]
                )

    @pytest.mark.parametrize("n_a, n_b, side", TWO_ROW_SIDES)
    def test_two_row_side_never_takes_the_numpy_map(self, rng, monkeypatch, n_a, n_b, side):
        def refuse(*args):
            raise AssertionError("the NumPy map ran on a 2-row side")

        state = random_state(rng, n_a, n_b, displaced=True)
        u = GaussianUnitary(random_symplectic(rng, 1), rng.normal(size=2))
        ch = random_channel(rng)
        monkeypatch.setattr(nfg.states, "_act_on_side", refuse)
        calls = linalg_calls(monkeypatch)
        for out in (apply_gaussian_unitary(state, u, side), apply_channel(state, ch, side)):
            assert (out.n_a, out.n_b) == (n_a, n_b)
            assert float_bits(out._rows) == float_bits(out.cm.tolist())
        # a (1+1) map and the Simon verdict of its output read rows only;
        # a larger output's verdict is one LAPACK Cholesky factor
        assert calls == ([] if n_a + n_b == 2 else ["cholesky", "cholesky"])

    @pytest.mark.parametrize("p", [0, 2], ids=["A", "B"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_four_rows_match_the_row_loop_bit_for_bit(self, rng, p, noisy):
        def draw(shape, scale=1.0):
            x = scale * rng.uniform(-1.0, 1.0, size=shape)
            x[rng.random(shape) < 0.2] = -0.0
            x[rng.random(shape) < 0.1] = 0.0
            return x.tolist()

        # unsymmetric rows too: a state keeps the rows it was given, within
        # the tolerance, and the map reads the upper cross block only
        draws = [(draw((4, 4)), draw((2, 2)), draw((2, 2)) if noisy else None) for _ in range(300)]
        for scale in (1e160, 1e300):  # products overflow to inf, and inf - inf to NaN
            for _ in range(50):
                draws.append(
                    (draw((4, 4), scale), draw((2, 2), scale), draw((2, 2), scale) if noisy else None)
                )
        inf = math.inf
        draws.append(([[1.0, 2.0, 3.0, 4.0]] * 4, [[inf, -inf], [0.0, 1.0]], None))
        seen = set()
        for rows, k, noise in draws:
            kept = float_bits(rows)
            out = nfg.states._map_rows(rows, p, k, noise)
            assert float_bits(out) == float_bits(loop_map_rows(rows, p, k, noise))
            assert float_bits(rows) == kept  # the input is not written to
            assert not any(o is r for o in out for r in rows)  # no row shared
            seen.update(x.hex() for x in itertools.chain.from_iterable(out) if not math.isfinite(x))
        assert {"inf", "-inf", "nan"} <= seen

    def test_larger_side_keeps_the_numpy_map(self, rng):
        state = random_state(rng, 2, 2)
        u, ch = GaussianUnitary(random_symplectic(rng, 2)), dilation_channel(rng, 2)
        assert float_bits(apply_channel(state, ch)._rows) == float_bits(
            _numpy_channel_on_b(state, ch)._rows
        )
        rotated = nfg.states._act_on_side(state.cm, 4, "A", u.s)
        assert float_bits(apply_gaussian_unitary(state, u, "A")._rows) == float_bits(
            rotated.tolist()
        )

    @pytest.mark.parametrize("n_a", [1, 2])
    def test_no_monotonicity_draw_flips(self, rng, n_a):
        # The float map and the NumPy map give the same verdict and the same
        # side of `before` on every draw, to a few ulps of the value.
        for i in range(200):
            state = (
                stream_shaped_state(rng) if n_a == 1 and i % 2 else random_state(rng, n_a, 1)
            )
            ch = random_channel(rng)
            report = nfg.check_monotonicity(state, ch)
            after = nfg.correlation._clamp(
                nfg.correlation._measure(_numpy_channel_on_b(state, ch))
            )
            assert report.holds and after <= report.before + 1e-10
            assert (report.after <= report.before) == (after <= report.before)
            assert report.after == pytest.approx(after, rel=1e-12, abs=1e-300)

    def test_maps_keep_the_rows_they_checked(self, rng):
        u = GaussianUnitary(random_symplectic(rng, 1).tolist())
        ch = GaussianChannel(rotation(0.3), [[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        assert float_bits(u._rows) == float_bits(u.s.tolist())
        assert float_bits(ch._k_rows) == float_bits(ch.k.tolist())
        assert float_bits(ch._m_rows) == float_bits(ch.m_noise.tolist())

    def test_one_correlation_test_on_the_rows(self, rng, monkeypatch):
        # The spectrum and the degeneracy flag share the rows' C = 0 test,
        # where C = -0.0 counts as zero: nothing is factorized.
        g = la.block_diag(random_cm(rng, 2), random_cm(rng, 1))
        g[:4, 4:], g[4:, :4] = -0.0, -0.0
        state = GaussianState(g, 2, 1)
        tests, rows_test = [], GaussianState._uncorrelated.fget
        monkeypatch.setattr(
            GaussianState, "_uncorrelated", property(lambda s: tests.append(s) or rows_test(s))
        )
        calls = linalg_calls(monkeypatch)
        result = nfg_numeric(state)
        assert result.value == 0.0 and not result.lower_bound_only
        assert tests == [state, state] and calls == []
