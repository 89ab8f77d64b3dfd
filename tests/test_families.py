import re
import warnings

import numpy as np
import pytest

import nfg.states

from nfg import (
    SstsParams,
    StandardFormParams,
    SweepGrid,
    dg_ssts,
    nfg_ssts,
    nfg_ssts_limit,
    nfg_two_mode,
    purity,
    q_ssts,
    ssts,
    sweep,
    tmsv,
    validate_cm,
)
from nfg.families import _R_MAX

from helpers import standard_state

# Reference values computed with 50-digit arithmetic (1200 digits at n_bar =
# 1e150, where t^2 has 300) directly from the published closed forms (no
# rearrangement), rounded to double precision.
REFERENCE = [
    # (n_bar, mu, nfg, dg, q)
    (0.5, 0.99, 0.8245407271414542, 0.5326412801797844, 0.4804882831650162),
    (49.0, 0.9, 0.8979552469135802, 0.0003558793098085108, 0.0408673894912427),
    (10000.0, 0.9, 0.898029798329005, 8.724391759322212e-09, 0.00021309116075372237),
    (100000.0, 0.9, 0.8980298001370911, 8.72517709769657e-11, 2.131512197100734e-05),
    (1e6, 0.3, 0.09202050382388482, 1.2873306522168163e-14, 4.945049755468404e-08),
    (1e10, 0.7, 0.5437042234989693, 1.5493535572977105e-21, 4.803921567916282e-11),
    (1e13, 0.999, 0.9999840797089411, 1.2450171162649139e-24, 2.496250625250094e-11),
    (1e150, 0.01, 0.00010000249999999376, 1.2501797083030213e-305, 5.000500050005001e-155),
    (1e150, 0.5, 0.2653061224489796, 4.691167798399524e-302, 1.6666666666666667e-151),
    (1e150, 1.0, 1.0, 1.0, 1.0),
]


class TestSstsState:
    def test_zero_photons_is_vacuum(self):
        state = ssts(SstsParams(0.0, 0.7))
        assert np.array_equal(state.cm, np.eye(4))

    def test_mu_one_member_is_pure(self):
        state = ssts(SstsParams(1.0, 1.0))
        c = 2.0 * np.sqrt(2.0)
        assert state.cm[0, 0] == 3.0 and state.cm[2, 2] == 3.0
        assert state.cm[0, 2] == pytest.approx(c) and state.cm[1, 3] == pytest.approx(-c)
        assert validate_cm(state.cm).symplectic_eigenvalues == pytest.approx(
            [1.0, 1.0], abs=1e-9
        )

    def test_unmixed_is_thermal_product(self):
        state = ssts(SstsParams(1.0, 0.0))
        assert np.array_equal(state.cm, np.diag([3.0, 3.0, 3.0, 3.0]))
        assert np.array_equal(state.cm[:2, 2:], np.zeros((2, 2)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SstsParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            SstsParams(1.0, 1.5)
        with pytest.raises(ValueError):
            SstsParams(np.inf, 0.5)

    @pytest.mark.parametrize(
        "n_bar, message",
        [
            (-0.1, "n_bar must be finite and >= 0, got -0.1"),
            (np.inf, "n_bar must be finite and >= 0, got inf"),
            (np.nan, "n_bar must be finite and >= 0, got nan"),
            (np.nextafter(1e150, np.inf), "n_bar must be at most 1e+150, got 1.0000000000000002e+150"),
            (1.7976931348623157e308, "n_bar must be at most 1e+150, got 1.7976931348623157e+308"),
        ],
    )
    def test_n_bar_messages(self, n_bar, message):
        with pytest.raises(ValueError) as exc:
            SstsParams(float(n_bar), 0.5)
        assert str(exc.value) == message

    def test_closed_forms_are_normal_up_to_the_n_bar_ceiling(self):
        # past ~7e153 t^2 overflows and dg_ssts reads NaN at mu = 1
        for mu in np.linspace(0.0, 1.0, 101).tolist():
            p = SstsParams(1e150, mu)
            values = [nfg_ssts(p), dg_ssts(p), q_ssts(p)]
            if mu == 0.0:
                assert values == [0.0, 0.0, 0.0]
            else:
                assert all(np.finfo(float).tiny <= v < 1.0 for v in values)
        with pytest.raises(ValueError, match="at most"):
            sweep(SweepGrid(0.0, 1e151, 3, 0.0, 1.0, 3))


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        assert np.array_equal(tmsv(0.0).cm, np.eye(4))

    def test_pure_for_any_r(self):
        state = tmsv(0.5)
        assert purity(state) == pytest.approx(1.0, rel=1e-10)
        assert validate_cm(state.cm).symplectic_eigenvalues == pytest.approx(
            [1.0, 1.0], abs=1e-9
        )

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.3])
    def test_is_the_pure_family_member(self, r):
        expected = ssts(SstsParams(np.sinh(r) ** 2, 1.0))
        assert np.abs(tmsv(r).cm - expected.cm).max() < 1e-12 * np.cosh(2 * r)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            tmsv(-0.5)

    def test_overflowing_r_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="at most"):
            tmsv(400.0)

    def test_limit_is_where_twice_cosh_overflows(self):
        above = np.nextafter(_R_MAX, np.inf)
        with np.errstate(over="ignore"):
            assert np.isfinite(2.0 * np.cosh(2.0 * _R_MAX))
            assert not np.isfinite(2.0 * np.cosh(2.0 * above))

    def test_largest_r_builds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = tmsv(_R_MAX)
        assert np.all(np.isfinite(state.cm))
        assert state.cm[0, 0] == np.cosh(2.0 * _R_MAX)

    def test_next_float_above_the_limit_rejected(self):
        above = np.nextafter(_R_MAX, np.inf)
        message = re.escape(f"squeeze parameter must be at most {_R_MAX}, got {above}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                tmsv(above)


class TestOneVerdict:
    """The family builders hand their standard-form matrix to GaussianState,
    whose Simon verdict is the only one run, and build the standard-form
    matrix that `helpers.standard_state` writes out."""

    @pytest.fixture
    def verdicts(self, monkeypatch):
        calls = []
        verdict = nfg.states._verdict

        def spy(g, rows):
            calls.append(g.shape)
            return verdict(g, rows)

        monkeypatch.setattr(nfg.states, "_verdict", spy)
        return calls

    @pytest.mark.parametrize("n_bar, mu", [(0.0, 0.0), (1.0, 0.5), (49.0, 0.9), (1e13, 1.0)])
    def test_ssts(self, verdicts, n_bar, mu):
        state = ssts(SstsParams(n_bar, mu))
        assert verdicts == [(4, 4)]
        a = 1.0 + 2.0 * n_bar
        c = 2.0 * mu * np.sqrt(n_bar * (1.0 + n_bar))
        assert np.array_equal(state.cm, standard_state(StandardFormParams(a, a, c, -c)).cm)

    @pytest.mark.parametrize("r", [0.0, 0.5, 3.0, 350.0])
    def test_tmsv(self, verdicts, r):
        state = tmsv(r)
        assert verdicts == [(4, 4)]
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
        assert np.array_equal(state.cm, standard_state(StandardFormParams(ch, ch, sh, -sh)).cm)


class TestClosedFormValues:
    @pytest.mark.parametrize("n_bar,mu,ref_nfg,ref_dg,ref_q", REFERENCE)
    def test_against_high_precision_references(self, n_bar, mu, ref_nfg, ref_dg, ref_q):
        p = SstsParams(n_bar, mu)
        assert nfg_ssts(p) == pytest.approx(ref_nfg, rel=5e-15)
        assert dg_ssts(p) == pytest.approx(ref_dg, rel=5e-15)
        assert q_ssts(p) == pytest.approx(ref_q, rel=5e-15)

    def test_published_point(self):
        p = SstsParams(49.0, 0.9)
        assert nfg_ssts(p) == pytest.approx(0.897955, abs=1e-5)
        assert dg_ssts(p) == pytest.approx(0.000356, abs=1e-6)
        assert q_ssts(p) == pytest.approx(0.040867, abs=1e-6)

    def test_uncorrelated_family_members_vanish(self):
        for n_bar in (0.0, 1.0, 100.0):
            p = SstsParams(n_bar, 0.0)
            assert nfg_ssts(p) == 0.0
            assert dg_ssts(p) == 0.0
            assert q_ssts(p) == 0.0

    def test_pure_member_identity(self):
        # at mu = 1 the value collapses to 1 - 1/(1 + 2n + 2n^2)^2
        for n_bar in (0.5, 1.0, 49.0, 1e4, 1e8):
            got = nfg_ssts(SstsParams(n_bar, 1.0))
            expected = 1.0 - 1.0 / (1.0 + 2.0 * n_bar + 2.0 * n_bar * n_bar) ** 2
            assert got == pytest.approx(expected, rel=1e-12)

    def test_pure_member_q_identity(self):
        for n_bar in (0.5, 49.0):
            assert q_ssts(SstsParams(n_bar, 1.0)) == pytest.approx(
                1.0 - 1.0 / (1.0 + 2.0 * n_bar), rel=1e-12
            )

    def test_matches_general_two_mode_route(self):
        for n_bar in np.linspace(0.05, 20.0, 20):
            for mu in np.linspace(0.0, 1.0, 20):
                p = SstsParams(float(n_bar), float(mu))
                assert abs(nfg_ssts(p) - nfg_two_mode(ssts(p)).value) < 1e-10

    @pytest.mark.parametrize("n_bar", [1e5, 1e8, 1e13])
    def test_pure_member_matches_the_general_route_where_it_rounds_to_one(self, n_bar):
        # Both clamp below 1, so the closed form reads 1 - 2^-53 as the
        # state's measure does; every point function returns a Python float.
        p = SstsParams(n_bar, 1.0)
        assert nfg_ssts(p) == nfg_two_mode(ssts(p)).value == np.nextafter(1.0, 0.0)
        assert all(type(f(p)) is float for f in (nfg_ssts, dg_ssts, q_ssts))

    def test_dg_vanishes_at_large_n_bar(self):
        vals = [dg_ssts(SstsParams(nb, 0.6)) for nb in (1e2, 1e5, 1e9, 1e13)]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-25


class TestLimit:
    def test_displayed_value(self):
        assert nfg_ssts_limit(0.9) == pytest.approx(
            1.0 - 0.19**2 / 0.595**2, rel=1e-12
        )
        assert nfg_ssts_limit(0.9) == pytest.approx(0.898030, abs=1e-6)

    def test_small_mu_tends_to_zero(self):
        assert nfg_ssts_limit(1e-8) < 1e-15

    def test_finite_family_converges(self):
        for mu in (0.1, 0.5, 0.9):
            assert abs(nfg_ssts(SstsParams(1e8, mu)) - nfg_ssts_limit(mu)) < 1e-6

    def test_huge_n_bar_is_finite_and_converged(self):
        for mu in (0.1, 0.5, 0.9, 0.999):
            val = nfg_ssts(SstsParams(1e13, mu))
            assert np.isfinite(val)
            assert abs(val - nfg_ssts_limit(mu)) < 1e-9

    def test_open_interval_enforced(self):
        for mu in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                nfg_ssts_limit(mu)


class TestSweep:
    def test_single_point_grid(self):
        n_axis, mu_axis, (nfg, dg, q, _, _) = sweep(SweepGrid(49.0, 49.0, 1, 0.9, 0.9, 1))
        assert n_axis.tolist() == [49.0] and mu_axis.tolist() == [0.9]
        assert nfg.shape == dg.shape == q.shape == (1,)
        assert nfg[0] == pytest.approx(0.897955, abs=1e-5)
        assert dg[0] == pytest.approx(0.000356, abs=1e-6)
        assert q[0] == pytest.approx(0.040867, abs=1e-6)

    @pytest.mark.parametrize(
        "grid",
        [
            SweepGrid(0.0, 2.0, 3, 0.0, 1.0, 4),
            SweepGrid(0.0, 52.5, 21, 0.0, 1.0, 17),
            SweepGrid(1e5, 1e5 + 525.0, 9, 0.1, 0.9, 11),
            SweepGrid(0.0, 1e13, 13, 0.0, 1.0, 7),
        ],
        ids=["small", "low", "high", "1e13"],
    )
    def test_contract(self, grid):
        n_axis, mu_axis, columns = sweep(grid)
        assert np.array_equal(
            n_axis, np.linspace(grid.n_bar_min, grid.n_bar_max, grid.n_bar_steps)
        )
        assert np.array_equal(mu_axis, np.linspace(grid.mu_min, grid.mu_max, grid.mu_steps))
        size = grid.n_bar_steps * grid.mu_steps
        assert len(columns) == 5
        for column in columns:
            assert type(column) is np.ndarray
            assert column.dtype == np.float64 and column.shape == (size,)
        nfg, dg, q, nfg_minus_dg, nfg_minus_q = columns
        # n_bar outer, mu inner
        points = [SstsParams(n, mu) for n in n_axis.tolist() for mu in mu_axis.tolist()]
        # bit for bit: the point functions run the same closed forms on floats
        assert nfg.tolist() == [nfg_ssts(p) for p in points]
        assert dg.tolist() == [dg_ssts(p) for p in points]
        assert q.tolist() == [q_ssts(p) for p in points]
        assert np.array_equal(nfg_minus_dg, nfg - dg)
        assert np.array_equal(nfg_minus_q, nfg - q)

    @pytest.mark.parametrize("steps", [2.5, 51.0, True, "51", None])
    def test_non_integer_steps_rejected(self, steps):
        # 2.5 used to leak NumPy's TypeError out of sweep(), and True was
        # taken as a 1-step axis.
        for args in ((steps, 51), (51, steps)):
            with pytest.raises(ValueError, match="grid steps must be integers"):
                SweepGrid(0.0, 50.0, args[0], 0.0, 1.0, args[1])

    def test_numpy_integer_steps_accepted(self):
        n_axis, mu_axis, columns = sweep(SweepGrid(0.0, 2.0, np.int64(3), 0.0, 1.0, np.int32(2)))
        want_n, want_mu, want = sweep(SweepGrid(0.0, 2.0, 3, 0.0, 1.0, 2))
        assert np.array_equal(n_axis, want_n) and np.array_equal(mu_axis, want_mu)
        assert all(np.array_equal(c, w) for c, w in zip(columns, want, strict=True))

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(0.0, 50.0, 0, 0.0, 1.0, 51)
        with pytest.raises(ValueError):
            SweepGrid(50.0, 0.0, 51, 0.0, 1.0, 51)
        with pytest.raises(ValueError):
            SweepGrid(0.0, 50.0, 51, 1.0, 0.0, 51)
        with pytest.raises(ValueError):
            SweepGrid(0.0, np.inf, 51, 0.0, 1.0, 51)
